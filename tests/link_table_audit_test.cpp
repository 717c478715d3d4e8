// Failure paths of LinkSessionTable::audit() and audit_handle().
//
// The audits format their diagnostics only once a check has failed, so
// the pass path (exercised everywhere else) says nothing about the
// text.  These tests restore deliberately inconsistent snapshots — or
// desynchronize a table through a handle resolved on another table —
// and pin the exact message each check reports.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/link_table.hpp"

namespace bneck::core {
namespace {

using Row = LinkSessionTable::Snapshot::Row;

constexpr Rate kCapacity = 100.0;

Row idle_r(int s, Rate lambda, double weight = 1.0) {
  return Row{SessionId{s}, Mu::Idle, lambda, weight, true, 1};
}
Row in_f(int s, Rate lambda, double weight = 1.0) {
  return Row{SessionId{s}, Mu::Idle, lambda, weight, false, 1};
}

/// Two idle Re sessions at level 30 and one Fe session at level 40:
/// consistent aggregates |Re| = 2, Σ_Re w = 2, Σ_Fe w·λ = 40.
LinkSessionTable::Snapshot consistent() {
  LinkSessionTable::Snapshot snap;
  snap.rows = {idle_r(1, 30.0), idle_r(2, 30.0), in_f(3, 40.0)};
  snap.r_count = 2;
  snap.r_weight = 2;
  snap.f_sum = 40;
  return snap;
}

std::string audit_of(const LinkSessionTable::Snapshot& snap) {
  LinkSessionTable t(kCapacity);
  t.restore(snap);
  return t.audit();
}

TEST(LinkTableAuditFailure, ConsistentSnapshotPasses) {
  EXPECT_EQ(audit_of(consistent()), "");
}

TEST(LinkTableAuditFailure, WrongReCount) {
  LinkSessionTable::Snapshot snap = consistent();
  snap.r_count = 3;
  EXPECT_EQ(audit_of(snap), "|Re| aggregate 3 != naive count 2");
}

TEST(LinkTableAuditFailure, WrongReWeightSum) {
  LinkSessionTable::Snapshot snap = consistent();
  snap.r_weight = 2.5;
  EXPECT_EQ(audit_of(snap), "sum_R weight aggregate 2.5 != naive sum 2");
}

TEST(LinkTableAuditFailure, WrongFeSum) {
  LinkSessionTable::Snapshot snap = consistent();
  snap.f_sum = 41.25;
  EXPECT_EQ(audit_of(snap), "sum_F aggregate 41.25 != naive sum 40");
}

TEST(LinkTableAuditFailure, NanLambdaRow) {
  // A waiting Re row is in neither index, so restore() accepts the NaN
  // key and only the per-record check can see it.
  LinkSessionTable::Snapshot snap = consistent();
  snap.rows.push_back(Row{SessionId{4}, Mu::WaitingProbe,
                          std::numeric_limits<Rate>::quiet_NaN(), 1.0, true,
                          1});
  snap.r_count = 3;
  snap.r_weight = 3;
  EXPECT_EQ(audit_of(snap), "record: session 4 has invalid lambda nan");
}

TEST(LinkTableAuditFailure, BadRecordsAccumulateInOneMessage) {
  LinkSessionTable::Snapshot snap;
  snap.rows = {Row{SessionId{5}, Mu::WaitingProbe, -1.0, 0.0, true, 1}};
  snap.r_count = 1;
  snap.r_weight = 0;
  EXPECT_EQ(audit_of(snap),
            "record: session 5 has invalid lambda -1session 5 has invalid "
            "weight 0");
}

TEST(LinkTableAuditFailure, IdleReRowMissingFromTheIndex) {
  // Two tables built by the same operations share a map epoch, so a
  // handle resolved on `other` passes `t`'s epoch check and reaches
  // other's record: set_mu flips that record to IDLE while indexing it
  // in `t`.  `other` is left with an idle Re row its index lacks — the
  // wiring bug the index check exists for.
  LinkSessionTable::Snapshot snap;
  snap.rows = {Row{SessionId{1}, Mu::WaitingProbe, 30.0, 1.0, true, 1}};
  snap.r_count = 1;
  snap.r_weight = 1;
  LinkSessionTable t(kCapacity);
  LinkSessionTable other(kCapacity);
  t.restore(snap);
  other.restore(snap);
  LinkSessionTable::SessionHandle foreign = other.find(SessionId{1});
  t.set_mu(foreign, Mu::Idle);
  EXPECT_EQ(other.audit(),
            "idle-Re index: holds 0 entries, naive model has 1");
  EXPECT_EQ(t.audit(),
            "idle-Re index: holds 1 entries, naive model has 0");
}

TEST(LinkTableAuditFailure, FeIndexWithDifferentContent) {
  // Same foreign-handle route into the Fe index, with a level shift
  // small enough for the Σ_Fe w·λ tolerance: `t` re-keys session 2 in
  // its own index while the record it changes is other's, so `t`'s
  // index no longer matches `t`'s records entry for entry.
  LinkSessionTable::Snapshot snap;
  snap.rows = {idle_r(1, 30.0), in_f(2, 40.0)};
  snap.r_count = 1;
  snap.r_weight = 1;
  snap.f_sum = 40;
  LinkSessionTable t(kCapacity);
  LinkSessionTable other(kCapacity);
  t.restore(snap);
  other.restore(snap);
  LinkSessionTable::SessionHandle foreign = other.find(SessionId{2});
  t.set_idle_with_lambda(foreign, 40.00005);
  EXPECT_EQ(t.audit(),
            "Fe index: holds 1 entries, naive model has 1 (same size, "
            "different content)");
}

TEST(LinkTableAuditFailure, AuditHandleMessages) {
  LinkSessionTable t(kCapacity);
  t.restore(consistent());
  EXPECT_EQ(t.audit_handle(LinkSessionTable::SessionHandle{}), "null handle");

  LinkSessionTable::SessionHandle h = t.find(SessionId{3});
  t.erase(h);
  EXPECT_EQ(t.audit_handle(h),
            "handle for session 3 which the table no longer contains");

  // Equal epochs (same build history), different records.
  LinkSessionTable u(kCapacity);
  LinkSessionTable other(kCapacity);
  u.restore(consistent());
  other.restore(consistent());
  const LinkSessionTable::SessionHandle foreign = other.find(SessionId{1});
  EXPECT_EQ(u.audit_handle(foreign),
            "handle for session 1 desynced: same epoch but a fresh lookup "
            "resolves to a different record");
}

TEST(LinkTableAuditFailure, RepeatedAuditsReuseNoStaleState) {
  // The reconstruction buffers are reused across calls: a failing audit
  // followed by audits of other tables must not leak entries between
  // them.
  LinkSessionTable::Snapshot bad = consistent();
  bad.r_count = 3;
  LinkSessionTable big(kCapacity);
  LinkSessionTable::Snapshot many;
  for (int s = 0; s < 64; ++s) many.rows.push_back(idle_r(s, 1.0));
  many.r_count = 64;
  many.r_weight = 64;
  big.restore(many);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(audit_of(bad), "|Re| aggregate 3 != naive count 2");
    EXPECT_EQ(big.audit(), "");
    EXPECT_EQ(audit_of(consistent()), "");
  }
}

}  // namespace
}  // namespace bneck::core
