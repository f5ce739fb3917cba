#ifndef PRESERIAL_PRESERIAL_H_
#define PRESERIAL_PRESERIAL_H_

// Umbrella header for downstream users: the full public API of the
// pre-serialization middleware and its substrates. Include individual
// headers instead when compile time matters.

#include "common/clock.h"       // IWYU pragma: export
#include "common/ids.h"         // IWYU pragma: export
#include "common/random.h"      // IWYU pragma: export
#include "common/stats.h"       // IWYU pragma: export
#include "common/status.h"      // IWYU pragma: export
#include "gtm/gtm.h"            // IWYU pragma: export
#include "gtm/gtm_service.h"    // IWYU pragma: export
#include "mobile/client.h"      // IWYU pragma: export
#include "mobile/multi_session.h"  // IWYU pragma: export
#include "mobile/session.h"     // IWYU pragma: export
#include "model/analytic.h"     // IWYU pragma: export
#include "semantics/commutativity.h"  // IWYU pragma: export
#include "semantics/compatibility.h"  // IWYU pragma: export
#include "semantics/reconcile.h"      // IWYU pragma: export
#include "sim/simulator.h"      // IWYU pragma: export
#include "storage/database.h"   // IWYU pragma: export
#include "txn/occ.h"            // IWYU pragma: export
#include "txn/txn_manager.h"    // IWYU pragma: export
#include "workload/gtm_experiment.h"  // IWYU pragma: export
#include "workload/synthetic.h"       // IWYU pragma: export
#include "workload/travel_agency.h"   // IWYU pragma: export

#endif  // PRESERIAL_PRESERIAL_H_
