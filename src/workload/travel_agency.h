#ifndef PRESERIAL_WORKLOAD_TRAVEL_AGENCY_H_
#define PRESERIAL_WORKLOAD_TRAVEL_AGENCY_H_

#include <cstdint>
#include <string>

#include "common/random.h"
#include "common/status.h"
#include "gtm/gtm.h"
#include "gtm/gtm_service.h"
#include "storage/database.h"
#include "workload/gtm_experiment.h"

namespace preserial::workload {

// The paper's Sec. II motivating scenario: a web agency selling
// personalized package tours. Four tables with availability counters under
// `>= 0` CHECK constraints; every counter doubles as a GTM object whose
// bookings (subtractions) are mutually compatible.
struct TravelAgencyConfig {
  size_t num_flights = 10;
  size_t num_hotels = 8;
  size_t num_museums = 5;
  size_t num_cars = 6;
  int64_t seats_per_flight = 50;
  int64_t rooms_per_hotel = 30;
  int64_t tickets_per_museum = 100;
  int64_t cars_per_depot = 20;
};

// Table names and the availability column (column 1 in every table).
inline constexpr char kFlightsTable[] = "flights";
inline constexpr char kHotelsTable[] = "hotels";
inline constexpr char kMuseumsTable[] = "museums";
inline constexpr char kCarsTable[] = "cars";
inline constexpr size_t kAvailabilityColumn = 1;

// Creates schema, rows and CHECK constraints in `db`.
Status BuildTravelAgencyDatabase(storage::Database* db,
                                 const TravelAgencyConfig& config);

// Registers one single-member GTM object per availability counter
// ("flights/3", "hotels/0", ...).
Status RegisterTravelObjects(gtm::Gtm* gtm, const TravelAgencyConfig& config);

gtm::ObjectId FlightObject(size_t i);
gtm::ObjectId HotelObject(size_t i);
gtm::ObjectId MuseumObject(size_t i);
gtm::ObjectId CarObject(size_t i);

// A user's package-tour selection.
struct TourPlan {
  size_t flight = 0;
  size_t hotel = 0;
  size_t museum = 0;
  size_t car = 0;
};

TourPlan SampleTour(Rng& rng, const TravelAgencyConfig& config);

// Books a whole tour through the blocking service: one long running
// transaction that reserves a seat, a room, a ticket and a car (each a
// compatible subtraction) and commits. Returns the commit status; any
// failure aborts the transaction.
Status BookTour(gtm::GtmService* service, const TourPlan& tour);

// --- simulated tour workload (multi-step long running transactions) --------

// The motivating scenario as a measurable experiment: `num_tours` clients
// arrive at fixed interarrival times, each booking a sampled package tour
// (flight -> hotel -> museum -> car, one compatible subtraction per stop)
// with think time between stops and an optional mid-tour disconnection.
struct TourWorkloadSpec {
  TravelAgencyConfig agency;
  size_t num_tours = 300;
  Duration interarrival = 0.5;
  Duration think_time = 1.0;    // Between bookings.
  Duration final_think = 1.0;   // Before the commit.
  double beta = 0.1;            // P(disconnection) per tour.
  Duration disconnect_mean = 10.0;
  // > 1 runs the same tours against a sharded cluster behind a GtmRouter
  // (objects hash-partitioned, each row on its owning shard; a tour's four
  // stops typically span several shards and commit via 2PC).
  size_t num_shards = 1;
  uint64_t seed = 42;
};

// GTM counters come from the result's snapshots; `coordinator` counts the
// cross-shard (multi-branch) commits of a sharded run.
GtmExperimentResult RunGtmTourExperiment(const TourWorkloadSpec& spec,
                                         const gtm::GtmOptions& options = {});

// The same arrival/tour sequence over strict 2PL (locks held across think
// times and disconnections; `lock_wait_timeout` / `idle_timeout` as in the
// single-op experiment).
BaselineResult RunTwoPlTourExperiment(const TourWorkloadSpec& spec,
                                      Duration lock_wait_timeout = 60.0,
                                      Duration idle_timeout = 60.0);

}  // namespace preserial::workload

#endif  // PRESERIAL_WORKLOAD_TRAVEL_AGENCY_H_
