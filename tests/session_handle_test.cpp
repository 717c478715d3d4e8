// Tests for the SessionHandle access path of LinkSessionTable (and the
// epoch machinery of base/flat_hash.hpp underneath it): handles must
// survive unrelated mutations within a handler run, the id-keyed
// wrappers must agree with the handle path on arbitrary operation
// sequences, and the audits must catch handles that went stale or
// desynced.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "base/flat_hash.hpp"
#include "core/link_table.hpp"

namespace bneck::core {
namespace {

using SessionHandle = LinkSessionTable::SessionHandle;

SessionId S(int i) { return SessionId{i}; }

// ---- FlatIdMap epoch contract ----

TEST(FlatIdMapEpoch, NonGrowingInsertKeepsEpoch) {
  FlatIdMap<SessionTag, int> m;
  m[S(1)] = 10;  // initial table of 16 slots
  const std::uint64_t e = m.epoch();
  m[S(2)] = 20;  // fits: no rehash
  EXPECT_EQ(m.epoch(), e);
  EXPECT_EQ(*m.find(S(1)), 10);
}

TEST(FlatIdMapEpoch, GrowAndEraseBumpEpoch) {
  FlatIdMap<SessionTag, int> m;
  m[S(1)] = 10;
  std::uint64_t e = m.epoch();
  for (int i = 2; i < 40; ++i) m[S(i)] = i;  // forces at least one rehash
  EXPECT_GT(m.epoch(), e);
  e = m.epoch();
  EXPECT_TRUE(m.erase(S(1)));
  EXPECT_GT(m.epoch(), e);
  e = m.epoch();
  EXPECT_FALSE(m.erase(S(1)));  // miss: nothing moved
  EXPECT_EQ(m.epoch(), e);
}

TEST(FlatIdMapEpoch, PointerValidWhileEpochUnchanged) {
  FlatIdMap<SessionTag, int> m;
  for (int i = 0; i < 100; ++i) m[S(i)] = i;
  const std::uint64_t e = m.epoch();
  int* p = m.find(S(42));
  ASSERT_NE(p, nullptr);
  *p = 1000;  // value writes never move slots
  ASSERT_EQ(m.epoch(), e);
  EXPECT_EQ(m.find(S(42)), p);
}

TEST(FlatIdMapAudit, CleanMapAuditsClean) {
  FlatIdMap<SessionTag, int> m;
  EXPECT_EQ(m.audit(), "");
  for (int i = 0; i < 200; ++i) m[S(i)] = i;
  for (int i = 0; i < 200; i += 3) m.erase(S(i));
  EXPECT_EQ(m.audit(), "");
}

// ---- handle stability across in-handler mutations ----

TEST(SessionHandleStability, SurvivesInsertAndEraseOfOtherSessions) {
  LinkSessionTable t(100.0);
  for (int i = 0; i < 8; ++i) t.insert_R(S(i), i);
  SessionHandle h3 = t.find(S(3));
  SessionHandle h5 = t.find(S(5));
  ASSERT_TRUE(h3.valid() && h5.valid());

  // Unrelated mutations of every kind: state flips, inserts (growing
  // the map past its initial capacity) and erases.
  t.set_idle_with_lambda(S(3), 12.5);
  for (int i = 8; i < 40; ++i) t.insert_R(S(i), i);
  t.erase(S(0));
  t.erase(S(7));
  t.set_idle_with_lambda(S(5), 20.0);
  t.move_to_F(S(5));

  // The handles still read the correct records.
  EXPECT_EQ(t.mu(h3), Mu::Idle);
  EXPECT_DOUBLE_EQ(t.lambda(h3), 12.5);
  EXPECT_EQ(t.hop(h3), 3);
  EXPECT_FALSE(t.in_R(h5));
  EXPECT_DOUBLE_EQ(t.lambda(h5), 20.0);
  EXPECT_EQ(t.hop(h5), 5);

  // And mutating through them still updates the table's indexes.
  t.set_mu(h3, Mu::WaitingProbe);
  EXPECT_EQ(t.mu(S(3)), Mu::WaitingProbe);
  t.move_to_R(h5);
  EXPECT_TRUE(t.in_R(S(5)));
  EXPECT_EQ(t.audit(), "");
}

TEST(SessionHandleStability, InsertReturnsUsableHandle) {
  LinkSessionTable t(100.0);
  SessionHandle h = t.insert_R(S(9), 2, 2.0);
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(h.id(), S(9));
  EXPECT_EQ(t.mu(h), Mu::WaitingResponse);
  EXPECT_DOUBLE_EQ(t.weight(h), 2.0);
  t.set_idle_with_lambda(h, 7.0);
  EXPECT_DOUBLE_EQ(t.rate_of(h), 14.0);
}

TEST(SessionHandleStability, UsingHandleAfterOwnEraseThrows) {
  LinkSessionTable t(100.0);
  t.insert_R(S(1), 0);
  SessionHandle h = t.find(S(1));
  t.erase(S(1));
  EXPECT_THROW((void)t.mu(h), InvariantError);
}

TEST(SessionHandleStability, NullHandleThrows) {
  LinkSessionTable t(100.0);
  t.insert_R(S(1), 0);
  SessionHandle miss = t.find(S(2));
  EXPECT_FALSE(miss.valid());
  EXPECT_THROW((void)t.lambda(miss), InvariantError);
}

// ---- id-wrapper equivalence on randomized operation sequences ----

TEST(SessionHandleEquivalence, IdPathAndHandlePathAgreeUnderRandomOps) {
  std::mt19937 rng(20260730);
  for (int round = 0; round < 20; ++round) {
    LinkSessionTable t(200.0);
    std::vector<SessionId> live;
    int next = 0;
    for (int op = 0; op < 300; ++op) {
      const int dice = static_cast<int>(rng() % 100);
      if (dice < 30 || live.empty()) {
        const SessionId s = S(next++);
        t.insert_R(s, static_cast<std::int32_t>(live.size()),
                   1.0 + static_cast<double>(rng() % 8) / 2.0);
        live.push_back(s);
        continue;
      }
      const SessionId s = live[rng() % live.size()];
      // Mutate through the *handle* path...
      SessionHandle h = t.find(s);
      ASSERT_TRUE(h.valid());
      if (dice < 45) {
        t.set_idle_with_lambda(h, static_cast<Rate>(rng() % 50) + 0.5);
      } else if (dice < 60) {
        t.set_mu(h, dice % 2 == 0 ? Mu::WaitingProbe : Mu::WaitingResponse);
      } else if (dice < 70 && t.in_R(h) && t.r_size() > 0) {
        t.move_to_F(h);
      } else if (dice < 80 && !t.in_R(h)) {
        t.move_to_R(h);
      } else if (dice < 90) {
        t.set_weight(h, 1.0 + static_cast<double>(rng() % 8) / 2.0);
      } else {
        t.erase(h);
        live.erase(std::find(live.begin(), live.end(), s));
        continue;
      }
      // ... and cross-check every read against the id wrappers.
      SessionHandle g = t.find(s);
      ASSERT_TRUE(g.valid());
      EXPECT_EQ(t.mu(g), t.mu(s));
      EXPECT_EQ(t.in_R(g), t.in_R(s));
      EXPECT_DOUBLE_EQ(t.lambda(g), t.lambda(s));
      EXPECT_DOUBLE_EQ(t.weight(g), t.weight(s));
      EXPECT_DOUBLE_EQ(t.rate_of(g), t.rate_of(s));
      EXPECT_EQ(t.hop(g), t.hop(s));
    }
    // The audit performs the full handle-vs-id cross-validation sweep.
    EXPECT_EQ(t.audit(), "");
  }
}

// ---- audits catching stale / desynced handles ----

TEST(SessionHandleAudit, CatchesHandleHeldAcrossOwnErase) {
  LinkSessionTable t(100.0);
  t.insert_R(S(1), 0);
  t.insert_R(S(2), 0);
  SessionHandle h = t.find(S(1));
  EXPECT_EQ(t.audit_handle(h), "");
  t.erase(S(1));
  const std::string err = t.audit_handle(h);
  EXPECT_NE(err, "");
  EXPECT_NE(err.find("no longer contains"), std::string::npos);
}

TEST(SessionHandleAudit, NullHandleReported) {
  LinkSessionTable t(100.0);
  EXPECT_NE(t.audit_handle(SessionHandle{}), "");
}

TEST(SessionHandleAudit, StaleButRevalidatableHandlePasses) {
  // An epoch-stale handle whose session still exists is *not* desynced:
  // the next access revalidates it.  audit_handle must accept it.
  LinkSessionTable t(100.0);
  for (int i = 0; i < 8; ++i) t.insert_R(S(i), 0);
  SessionHandle h = t.find(S(3));
  t.erase(S(0));  // bumps the epoch, may shift slots
  EXPECT_EQ(t.audit_handle(h), "");
  EXPECT_EQ(t.hop(h), 0);  // revalidates and reads fine
}

}  // namespace
}  // namespace bneck::core
