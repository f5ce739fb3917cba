#ifndef PRESERIAL_GTM_SST_H_
#define PRESERIAL_GTM_SST_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/database.h"
#include "storage/value.h"

namespace preserial::gtm {

// Executor of Secure System Transactions: the paper's bridge from the
// GTM's virtual context to the LDBS. At global commit the GTM hands this
// class the reconciled cell values and they are installed as one LDBS
// transaction. Each write updates its row in place, which checks the
// schema and CHECK constraints; if a write fails, the earlier ones are
// undone from their before-images in reverse order. Only when every write
// is in does the SST append Begin, one Update per write and Commit to the
// WAL, so a refused SST logs nothing.
//
// SSTs run serially under the GTM's commit, which owns every bound cell,
// so there is nothing to lock (the paper treats the SST as instantaneous,
// Sec. VI-A).
class SstExecutor {
 public:
  struct CellWrite {
    std::string table;
    storage::Value key;
    size_t column = 0;
    storage::Value value;
  };

  struct Counters {
    int64_t executed = 0;
    int64_t failed = 0;
    int64_t cells_written = 0;
    int64_t injected_failures = 0;
  };

  // Test/chaos hook: called before each execution attempt; a non-OK return
  // makes the attempt fail with that status (before touching the engine).
  // Models the transient SST failures whose recovery the paper leaves as
  // future work (Sec. VII).
  using FailureInjector = std::function<Status(const std::vector<CellWrite>&)>;

  explicit SstExecutor(storage::Database* db);

  SstExecutor(const SstExecutor&) = delete;
  SstExecutor& operator=(const SstExecutor&) = delete;

  // Applies all writes atomically, in order. On any failure (typically a
  // CHECK constraint violation) the applied writes are undone and the error
  // is returned; the tables are untouched. A WAL append that fails leaves
  // at most an uncommitted prefix of the records, which recovery discards.
  Status Execute(const std::vector<CellWrite>& writes);

  void set_failure_injector(FailureInjector injector) {
    injector_ = std::move(injector);
  }

  const Counters& counters() const { return counters_; }

 private:
  storage::Database* db_;
  FailureInjector injector_;
  Counters counters_;
};

}  // namespace preserial::gtm

#endif  // PRESERIAL_GTM_SST_H_
