#include "workload/travel_agency.h"

#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "semantics/operation.h"
#include "workload/deployment.h"

namespace preserial::workload {

namespace {

using storage::CheckConstraint;
using storage::ColumnDef;
using storage::CompareOp;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

gtm::ObjectId CounterObject(const char* table, size_t i) {
  return StrFormat("%s/%zu", table, i);
}

// The agency's four availability-counter tables under `>= 0` CHECK
// constraints, one single-member object per counter.
std::vector<TableSetup> AgencyTables(const TravelAgencyConfig& config) {
  struct Counter {
    const char* table;
    const char* column;
    size_t rows;
    int64_t initial;
  };
  const Counter counters[] = {
      {kFlightsTable, "free_tickets", config.num_flights,
       config.seats_per_flight},
      {kHotelsTable, "free_rooms", config.num_hotels, config.rooms_per_hotel},
      {kMuseumsTable, "free_tickets", config.num_museums,
       config.tickets_per_museum},
      {kCarsTable, "free_cars", config.num_cars, config.cars_per_depot},
  };
  std::vector<TableSetup> tables;
  for (const Counter& c : counters) {
    TableSetup t;
    t.name = c.table;
    t.schema = Schema({ColumnDef{"id", ValueType::kInt64, false},
                       ColumnDef{c.column, ValueType::kInt64, false}},
                      /*primary_key=*/0);
    for (size_t i = 0; i < c.rows; ++i) {
      t.rows.emplace_back(CounterObject(c.table, i),
                          Row({Value::Int(static_cast<int64_t>(i)),
                               Value::Int(c.initial)}));
    }
    t.constraint = CheckConstraint(t.name + "_nonneg", kAvailabilityColumn,
                                   CompareOp::kGe, Value::Int(0));
    t.members = {kAvailabilityColumn};
    tables.push_back(std::move(t));
  }
  return tables;
}

}  // namespace

Status BuildTravelAgencyDatabase(storage::Database* db,
                                 const TravelAgencyConfig& config) {
  for (const TableSetup& t : AgencyTables(config)) {
    PRESERIAL_RETURN_IF_ERROR(LoadTable(db, t));
  }
  return Status::Ok();
}

Status RegisterTravelObjects(gtm::Gtm* gtm,
                             const TravelAgencyConfig& config) {
  for (const TableSetup& t : AgencyTables(config)) {
    for (const auto& [object, row] : t.rows) {
      PRESERIAL_RETURN_IF_ERROR(
          gtm->RegisterObject(object, t.name, row.at(0), t.members));
    }
  }
  return Status::Ok();
}

gtm::ObjectId FlightObject(size_t i) { return CounterObject(kFlightsTable, i); }
gtm::ObjectId HotelObject(size_t i) { return CounterObject(kHotelsTable, i); }
gtm::ObjectId MuseumObject(size_t i) { return CounterObject(kMuseumsTable, i); }
gtm::ObjectId CarObject(size_t i) { return CounterObject(kCarsTable, i); }

TourPlan SampleTour(Rng& rng, const TravelAgencyConfig& config) {
  TourPlan plan;
  plan.flight = rng.NextBounded(config.num_flights);
  plan.hotel = rng.NextBounded(config.num_hotels);
  plan.museum = rng.NextBounded(config.num_museums);
  plan.car = rng.NextBounded(config.num_cars);
  return plan;
}

namespace {

// Shared tour-plan material across both engines.
struct PlannedTour {
  TourPlan tour;
  mobile::DisconnectPlan disconnect;
  TimePoint arrival = 0;
};

std::vector<PlannedTour> BuildTours(const TourWorkloadSpec& spec, Rng* rng) {
  const mobile::DisconnectModel disconnects =
      mobile::DisconnectModel::WithExponentialDuration(spec.beta,
                                                       spec.disconnect_mean);
  // A tour spans four bookings plus thinks; disconnections land anywhere in
  // that window.
  const Duration span = 4 * spec.think_time + spec.final_think;
  std::vector<PlannedTour> tours;
  tours.reserve(spec.num_tours);
  TimePoint arrival = 0;
  for (size_t i = 0; i < spec.num_tours; ++i) {
    PlannedTour p;
    p.tour = SampleTour(*rng, spec.agency);
    p.disconnect = disconnects.Sample(*rng, span);
    p.arrival = arrival;
    arrival += spec.interarrival;
    tours.push_back(p);
  }
  return tours;
}

// The four stops in a fixed global order (flights < hotels < museums <
// cars): ordered acquisition, so even 2PL cannot deadlock across tours.
std::vector<std::pair<std::string, int64_t>> Stops(const TourPlan& tour) {
  return {
      {kFlightsTable, static_cast<int64_t>(tour.flight)},
      {kHotelsTable, static_cast<int64_t>(tour.hotel)},
      {kMuseumsTable, static_cast<int64_t>(tour.museum)},
      {kCarsTable, static_cast<int64_t>(tour.car)},
  };
}

}  // namespace

GtmExperimentResult RunGtmTourExperiment(const TourWorkloadSpec& spec,
                                         const gtm::GtmOptions& options) {
  Rng rng(spec.seed);
  // Single-instance GTM or sharded cluster behind a router; the sessions
  // speak GtmEndpoint either way.
  const bool sharded = spec.num_shards > 1;
  const Topology topology =
      sharded ? Topology(ShardedTopology{.num_shards = spec.num_shards})
              : Topology(SingleTopology{});
  Deployment d(topology, options, spec.seed, /*wait_timeout=*/0);
  for (const TableSetup& t : AgencyTables(spec.agency)) d.Load(t);

  for (const PlannedTour& p : BuildTours(spec, &rng)) {
    mobile::MultiTxnPlan plan;
    for (const auto& [table, id] : Stops(p.tour)) {
      mobile::TourStep step;
      step.object = StrFormat("%s/%lld", table.c_str(),
                              static_cast<long long>(id));
      step.member = 0;
      step.op = semantics::Operation::Sub(storage::Value::Int(1));
      step.think_time = spec.think_time;
      if (sharded) step.shard = static_cast<int>(d.ShardOf(step.object));
      plan.steps.push_back(std::move(step));
    }
    if (!plan.steps.empty()) plan.shard = plan.steps.front().shard;
    plan.final_think = spec.final_think;
    plan.disconnect = p.disconnect;
    d.runner()->AddMultiSession(std::move(plan), p.arrival);
  }

  GtmExperimentResult result;
  d.Finish(&result);
  return result;
}

BaselineResult RunTwoPlTourExperiment(const TourWorkloadSpec& spec,
                                      Duration lock_wait_timeout,
                                      Duration idle_timeout) {
  Rng rng(spec.seed);
  std::unique_ptr<storage::Database> db =
      OpenDatabase(AgencyTables(spec.agency));

  sim::Simulator simulator;
  txn::TwoPhaseLockingEngine engine(db.get(), simulator.clock());
  TwoPlRunner runner(&engine, &simulator);

  for (const PlannedTour& p : BuildTours(spec, &rng)) {
    mobile::MultiTwoPlPlan plan;
    for (const auto& stop : Stops(p.tour)) {
      const int64_t stop_id = stop.second;
      mobile::TwoPlTourStep step;
      step.table = stop.first;
      step.key = storage::Value::Int(stop_id);
      step.column = kAvailabilityColumn;
      step.is_subtract = true;
      step.think_time = spec.think_time;
      plan.steps.push_back(std::move(step));
    }
    plan.final_think = spec.final_think;
    plan.disconnect = p.disconnect;
    plan.lock_wait_timeout = lock_wait_timeout;
    plan.idle_timeout = idle_timeout;
    runner.AddMultiSession(std::move(plan), p.arrival);
  }

  BaselineResult result;
  result.run = runner.Run();
  result.two_pl = engine.counters();
  return result;
}

Status BookTour(gtm::GtmService* service, const TourPlan& tour) {
  const TxnId txn = service->Begin();
  const semantics::Operation book = semantics::Operation::Sub(Value::Int(1));
  const gtm::ObjectId stops[] = {
      FlightObject(tour.flight),
      HotelObject(tour.hotel),
      MuseumObject(tour.museum),
      CarObject(tour.car),
  };
  for (const gtm::ObjectId& object : stops) {
    Status s = service->Invoke(txn, object, 0, book);
    if (!s.ok()) {
      (void)service->Abort(txn);
      return s;
    }
  }
  Status s = service->Commit(txn);
  if (!s.ok()) (void)service->Abort(txn);
  return s;
}

}  // namespace preserial::workload
