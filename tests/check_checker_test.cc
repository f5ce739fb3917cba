// The serializability checker itself: clean histories are certified, and
// each validator — reconciliation replay, CHECK bounds, serial-order
// search, Definition 1 admission, Algorithm 9 awake rule — fires on a
// history that breaks exactly its claim. Violations are produced either by
// tampering with a recorded history offline or by running the GTM with a
// seeded rule mutation (gtm::GtmMutation).

#include <memory>

#include <gtest/gtest.h>

#include "check/checker.h"
#include "check/history.h"
#include "common/clock.h"
#include "gtm/gtm.h"
#include "gtm/policies.h"
#include "semantics/operation.h"
#include "storage/database.h"

namespace preserial::check {
namespace {

using semantics::Operation;
using storage::ColumnDef;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

constexpr char kTable[] = "t";

bool HasRule(const CheckReport& report, const std::string& rule) {
  for (const Violation& v : report.violations) {
    if (v.rule == rule) return true;
  }
  return false;
}

std::unique_ptr<storage::Database> BuildDb(int64_t initial = 100) {
  auto db = std::make_unique<storage::Database>();
  EXPECT_TRUE(db->Open().ok());
  Schema schema = Schema::Create(
                      {
                          ColumnDef{"id", ValueType::kInt64, false},
                          ColumnDef{"val", ValueType::kInt64, false},
                      },
                      0)
                      .value();
  EXPECT_TRUE(db->CreateTable(kTable, std::move(schema)).ok());
  EXPECT_TRUE(
      db->InsertRow(kTable, Row({Value::Int(0), Value::Int(initial)})).ok());
  return db;
}

// Two concurrent compatible subtractions committing — the smallest
// interesting clean history.
History RecordCleanHistory() {
  auto db = BuildDb();
  ManualClock clock;
  gtm::Gtm gtm(db.get(), &clock);
  EXPECT_TRUE(gtm.RegisterObject("A", kTable, Value::Int(0), {1}).ok());
  HistoryRecorder recorder;
  recorder.Attach(&gtm);
  const TxnId t1 = gtm.Begin();
  const TxnId t2 = gtm.Begin();
  clock.Advance(1.0);
  EXPECT_TRUE(gtm.Invoke(t1, "A", 0, Operation::Sub(Value::Int(3))).ok());
  EXPECT_TRUE(gtm.Invoke(t2, "A", 0, Operation::Sub(Value::Int(4))).ok());
  clock.Advance(1.0);
  EXPECT_TRUE(gtm.RequestCommit(t1).ok());
  EXPECT_TRUE(gtm.RequestCommit(t2).ok());
  return recorder.Finish();
}

TEST(ValuesEquivalentTest, NumericsCompareAcrossTypes) {
  EXPECT_TRUE(ValuesEquivalent(Value::Int(40), Value::Double(40.0), 1e-9));
  EXPECT_TRUE(ValuesEquivalent(Value::Double(40.0), Value::Int(40), 1e-9));
  EXPECT_FALSE(ValuesEquivalent(Value::Int(40), Value::Int(41), 1e-9));
  // Relative tolerance: one part in 1e9 of a large value passes...
  EXPECT_TRUE(
      ValuesEquivalent(Value::Double(1e12), Value::Double(1e12 + 1), 1e-9));
  // ...a 1% difference does not.
  EXPECT_FALSE(
      ValuesEquivalent(Value::Double(100.0), Value::Double(101.0), 1e-9));
}

TEST(CheckHistoryTest, CertifiesCleanHistory) {
  const History h = RecordCleanHistory();
  const CheckReport report = CheckHistory(h);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.committed_txns, 2u);
  EXPECT_TRUE(report.exact_search);
  EXPECT_GE(report.orders_tried, 1u);
}

TEST(CheckHistoryTest, CommitOrderWitnessAboveExactSearchLimit) {
  const History h = RecordCleanHistory();
  CheckOptions options;
  options.exact_search_limit = 1;  // 2 committed txns > limit.
  const CheckReport report = CheckHistory(h, options);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_FALSE(report.exact_search);
  EXPECT_EQ(report.orders_tried, 1u);  // Commit order only.
}

TEST(CheckHistoryTest, TamperedFinalStateBreaksReconciliationAndSerial) {
  History h = RecordCleanHistory();
  h.final_state[gtm::Cell{"A", 0}] = Value::Int(999);
  const CheckReport report = CheckHistory(h);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasRule(report, "reconciliation")) << report.ToString();
  EXPECT_TRUE(HasRule(report, "serial")) << report.ToString();
}

TEST(CheckHistoryTest, CheckBoundViolationFlagged) {
  History h = RecordCleanHistory();
  // Claim qty must stay >= 95; the recorded run ends at 93.
  h.min_bound[gtm::Cell{"A", 0}] = 95.0;
  const CheckReport report = CheckHistory(h);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasRule(report, "constraint")) << report.ToString();
}

TEST(CheckHistoryTest, IncompleteHistoryRefusedOutright) {
  History h = RecordCleanHistory();
  h.complete = false;
  const CheckReport report = CheckHistory(h);
  ASSERT_FALSE(report.ok());
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, "incomplete-history");
}

TEST(CheckHistoryTest, AdmissionMutationTripsDefinition1) {
  // kAdmitAssignWithAddSub admits an assignment concurrently with an
  // in-flight subtraction on the same member — exactly the overlap
  // Definition 1 forbids.
  auto db = BuildDb();
  ManualClock clock;
  gtm::GtmOptions options;
  options.mutation = gtm::GtmMutation::kAdmitAssignWithAddSub;
  gtm::Gtm gtm(db.get(), &clock, options);
  ASSERT_TRUE(gtm.RegisterObject("A", kTable, Value::Int(0), {1}).ok());
  HistoryRecorder recorder;
  recorder.Attach(&gtm);

  const TxnId sub = gtm.Begin();
  const TxnId assign = gtm.Begin();
  clock.Advance(1.0);
  ASSERT_TRUE(gtm.Invoke(sub, "A", 0, Operation::Sub(Value::Int(3))).ok());
  // Healthy GTM: kWaiting. Mutant: granted concurrently.
  ASSERT_TRUE(
      gtm.Invoke(assign, "A", 0, Operation::Assign(Value::Int(50))).ok());
  clock.Advance(1.0);
  (void)gtm.RequestCommit(assign);
  (void)gtm.RequestCommit(sub);

  const CheckReport report = CheckHistory(recorder.Finish());
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasRule(report, "definition1")) << report.ToString();
}

TEST(CheckHistoryTest, SkippedStalenessCheckTripsAlgorithm9) {
  // The sleeper's subtraction is stale: an incompatible assignment
  // committed after it went to sleep. Algorithm 9 demands an awake-abort;
  // the mutant wakes it anyway and the checker catches the bogus awake.
  auto db = BuildDb();
  ManualClock clock;
  gtm::GtmOptions options;
  options.mutation = gtm::GtmMutation::kSkipAwakeStalenessCheck;
  gtm::Gtm gtm(db.get(), &clock, options);
  ASSERT_TRUE(gtm.RegisterObject("A", kTable, Value::Int(0), {1}).ok());
  HistoryRecorder recorder;
  recorder.Attach(&gtm);

  const TxnId sleeper = gtm.Begin();
  clock.Advance(1.0);
  ASSERT_TRUE(
      gtm.Invoke(sleeper, "A", 0, Operation::Sub(Value::Int(3))).ok());
  ASSERT_TRUE(gtm.Sleep(sleeper).ok());
  clock.Advance(1.0);

  const TxnId admin = gtm.Begin();
  ASSERT_TRUE(
      gtm.Invoke(admin, "A", 0, Operation::Assign(Value::Int(50))).ok());
  ASSERT_TRUE(gtm.RequestCommit(admin).ok());
  clock.Advance(1.0);

  // Healthy GTM: Awake fails (stale). Mutant: wakes and lets it commit.
  ASSERT_TRUE(gtm.Awake(sleeper).ok());
  (void)gtm.RequestCommit(sleeper);

  const CheckReport report = CheckHistory(recorder.Finish());
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasRule(report, "algorithm9")) << report.ToString();
}

TEST(CheckHistoryTest, CommitSummaryStampedAtBeginTripsAlgorithm9) {
  // The incompatible assignment commits while the sleeper sleeps, but its
  // transaction began before the sleep and the mutant stamps its summary
  // slot with that begin time instead of X_tc. Awake then finds nothing
  // stale, and the checker catches the bogus awake.
  auto db = BuildDb();
  ManualClock clock;
  gtm::GtmOptions options;
  options.mutation = gtm::GtmMutation::kStampCommitSummaryAtBegin;
  gtm::Gtm gtm(db.get(), &clock, options);
  ASSERT_TRUE(gtm.RegisterObject("A", kTable, Value::Int(0), {1}).ok());
  HistoryRecorder recorder;
  recorder.Attach(&gtm);

  const TxnId admin = gtm.Begin();  // A_t_begin = 0.
  const TxnId sleeper = gtm.Begin();
  clock.Advance(1.0);
  ASSERT_TRUE(
      gtm.Invoke(sleeper, "A", 0, Operation::Sub(Value::Int(3))).ok());
  ASSERT_TRUE(gtm.Sleep(sleeper).ok());
  clock.Advance(1.0);

  ASSERT_TRUE(
      gtm.Invoke(admin, "A", 0, Operation::Assign(Value::Int(50))).ok());
  ASSERT_TRUE(gtm.RequestCommit(admin).ok());  // X_tc = 2.
  EXPECT_EQ(gtm.GetObject("A")
                .value()
                ->committed.Latest(0, semantics::OpClass::kUpdateAssign)
                .commit_time,
            0.0);
  clock.Advance(1.0);

  // Healthy GTM: Awake fails (stale). Mutant: wakes and lets it commit.
  ASSERT_TRUE(gtm.Awake(sleeper).ok());
  (void)gtm.RequestCommit(sleeper);

  const CheckReport report = CheckHistory(recorder.Finish());
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasRule(report, "algorithm9")) << report.ToString();
}

}  // namespace
}  // namespace preserial::check
