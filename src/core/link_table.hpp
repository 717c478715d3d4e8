// Per-link session table of the RouterLink task.
//
// Holds, for every session crossing the link, the paper's per-session
// state: the partition flag (restricted here, Re, vs restricted
// elsewhere, Fe), the state machine value
// µ ∈ {IDLE, WAITING_PROBE, WAITING_RESPONSE}, the session's max-min
// weight w_s (weighted extension) and the recorded *level* λes — the
// weight-normalized rate.  A session's actual rate is w_s · λes
// (rate_of()); with unit weights level and rate coincide and every
// formula below reduces to the paper's unweighted pseudocode, bit for
// bit.
//
// Access model (contract): the packet hot path is *handle-oriented*.  A
// RouterLink handler resolves the packet's session exactly once —
// resolve(s, hint) -> SessionHandle, where `hint` is the record pointer
// the session's route caches for this hop (core/router_plane.hpp): no
// probe while the map epoch is unchanged, else one find(s) that also
// refreshes the hint — and every subsequent read (mu, lambda,
// weight, hop, in_R, rate_of) and mutation (set_mu, set_weight,
// set_idle_with_lambda, move_to_R/F, erase) takes the handle, costing
// an epoch compare plus a direct record access instead of a repeated
// hash probe.  A handle survives *any* table mutation that does not
// erase its own session — including insert_R and erase of other
// sessions: the record map (base/flat_hash.hpp) keeps values inline in
// its probe array for single-cache-line lookups, advances an epoch
// whenever slots may have moved, and every handle access revalidates
// against that epoch, re-resolving (one probe) only when it actually
// did.  The id-keyed methods are thin wrappers over the handle path
// (one probe each) for tests, audits and callers that touch a session
// once, such as a RouterLink batch's victims; audit() cross-validates
// the two paths.
//
// The pseudocode's predicates are set-level quantifications; this table
// maintains two ordered indexes — (λ, s) over *idle Re* sessions and over
// *Fe* sessions (core/rate_index.hpp, keyed by level) — plus running
// aggregates (Σ_{Fe} w·λ, |Re|, Σ_{Re} w), so each predicate is answered
// in O(log n):
//   Be               = (Ce − Σ_{Fe} w·λ) / Σ_{Re} w  (+inf when Re = ∅;
//                      the common *level* of the Re sessions — session s
//                      of Re receives rate w_s · Be)
//   all_R_idle_at_be: ∀r∈Re, λ = Be ∧ µ = IDLE       (bottleneck detection)
//   exists F λ ≥ Be, max/argmax over Fe              (ProcessNewRestricted)
//   {r∈Re : IDLE ∧ λ > x} / {r∈Re : IDLE ∧ λ ≈ x}    (Update triggers)
// The set-valued queries return session ids; a RouterLink resolves each
// victim when it touches it, one probe per victim.
//
// λes is only meaningful while s ∈ Fe, or s ∈ Re with µ = IDLE — exactly
// the states in which the indexes track it.
//
// Units and invariants (contract):
//   * capacity() is in Mbps (like net::Link::capacity); λ keys and be()
//     are levels in Mbps-per-unit-weight; weights are dimensionless > 0.
//   * The aggregates and both indexes are kept exactly consistent with
//     the record map by every mutation (audit() cross-checks this
//     against a naive reconstruction, plus the map's own index<->slab
//     audit and handle-vs-id read agreement).
//   * Iteration order of the set-valued queries is (level ascending,
//     session id ascending) — the simulation's determinism contract
//     depends on it.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/expect.hpp"
#include "base/flat_hash.hpp"
#include "base/ids.hpp"
#include "base/rate.hpp"
#include "core/rate_index.hpp"

namespace bneck::core {

enum class Mu : std::uint8_t { Idle, WaitingProbe, WaitingResponse };

class LinkSessionTable {
 private:
  // Widest fields first: 24 bytes, so a record-map slot (key + Rec)
  // is 32 bytes and two share a cache line.
  struct Rec {
    Rate lambda = 0;       // level (rate / weight)
    double weight = 1.0;   // max-min weight, > 0
    std::int32_t hop = 0;
    Mu mu = Mu::WaitingResponse;
    bool in_r = true;
  };

 public:
  /// A resolved session record: {record pointer, map epoch, session
  /// id}.  Obtained from find()/resolve()/insert_R(); accessors take
  /// it by *reference* because access may refresh it: while the record map's
  /// epoch is unchanged the cached pointer is exact and an access costs
  /// one compare, and when slots moved (a rehash or an erase of any
  /// session) the next access transparently re-resolves with a single
  /// probe.  A handle therefore stays usable until *its own* session is
  /// erased; using it past that point trips the revalidation EXPECT.
  /// A null handle (find() miss) is valid()==false; passing one to any
  /// accessor is a contract violation.
  class SessionHandle {
   public:
    SessionHandle() = default;
    [[nodiscard]] bool valid() const { return rec_ != nullptr; }
    explicit operator bool() const { return valid(); }
    [[nodiscard]] SessionId id() const { return s_; }
    // No operator==: pointer equality would depend on revalidation
    // history; compare id()s instead.

   private:
    friend class LinkSessionTable;
    SessionHandle(Rec* rec, std::uint64_t epoch, SessionId s)
        : rec_(rec), epoch_(epoch), s_(s) {}
    Rec* rec_ = nullptr;
    std::uint64_t epoch_ = 0;
    SessionId s_;
  };

  /// A cached resolution of one session's record, kept by the caller
  /// across packets (core::RouterPlane::Hop holds one per route hop):
  /// the record pointer and the map epoch it was taken at.  resolve()
  /// trusts it only while the epoch is unchanged; a null hint never
  /// counts as resolved.
  struct Hint {
    Rec* rec = nullptr;
    std::uint64_t epoch = 0;
  };

  explicit LinkSessionTable(Rate capacity);

  [[nodiscard]] Rate capacity() const { return capacity_; }

  /// Resolves s to a handle (null if unknown) with one hash probe;
  /// the packet path reaches it through resolve(), everything after
  /// reads and mutates through the result.
  [[nodiscard]] SessionHandle find(SessionId s) const {
    auto& recs = const_cast<FlatIdMap<SessionTag, Rec>&>(recs_);
    return SessionHandle{recs.find(s), recs_.epoch(), s};
  }

  /// find() through a caller-kept hint: when `hint` still matches the
  /// record map's epoch no slot has moved, so its pointer is exact and
  /// no probe is made; otherwise one find() re-resolves and refreshes
  /// `hint`.  The result is the handle find(s) would return.
  [[nodiscard]] SessionHandle resolve(SessionId s, Hint& hint) const {
    if (hint.rec != nullptr && hint.epoch == recs_.epoch()) {
      return SessionHandle{hint.rec, hint.epoch, s};
    }
    const SessionHandle h = find(s);
    hint = Hint{h.rec_, h.epoch_};
    return h;
  }
  /// The hint that resolves to `h`'s record while the epoch holds.
  [[nodiscard]] static Hint hint_of(const SessionHandle& h) {
    return Hint{h.rec_, h.epoch_};
  }

  // ---- handle-keyed reads (the packet path) ----

  [[nodiscard]] bool in_R(SessionHandle& h) const { return rec(h).in_r; }
  [[nodiscard]] Mu mu(SessionHandle& h) const { return rec(h).mu; }
  /// Recorded level λes (weight-normalized rate) at this link.
  [[nodiscard]] Rate lambda(SessionHandle& h) const { return rec(h).lambda; }
  /// Max-min weight as last announced by the session's Join/Probe.
  [[nodiscard]] double weight(SessionHandle& h) const { return rec(h).weight; }
  /// Actual recorded rate: w_s · λes.
  [[nodiscard]] Rate rate_of(SessionHandle& h) const {
    const Rec& r = rec(h);
    return r.weight * r.lambda;
  }
  /// Hop index of this link in the session's path (recorded on insert so
  /// the link can originate upstream packets for the session).
  [[nodiscard]] std::int32_t hop(SessionHandle& h) const { return rec(h).hop; }

  // ---- id-keyed reads (thin wrappers for tests/audit/cold paths) ----

  [[nodiscard]] bool contains(SessionId s) const { return recs_.contains(s); }
  [[nodiscard]] bool in_R(SessionId s) const {
    SessionHandle h = checked(s);
    return in_R(h);
  }
  [[nodiscard]] Mu mu(SessionId s) const {
    SessionHandle h = checked(s);
    return mu(h);
  }
  [[nodiscard]] Rate lambda(SessionId s) const {
    SessionHandle h = checked(s);
    return lambda(h);
  }
  [[nodiscard]] double weight(SessionId s) const {
    SessionHandle h = checked(s);
    return weight(h);
  }
  [[nodiscard]] Rate rate_of(SessionId s) const {
    SessionHandle h = checked(s);
    return rate_of(h);
  }
  [[nodiscard]] std::int32_t hop(SessionId s) const {
    SessionHandle h = checked(s);
    return hop(h);
  }

  [[nodiscard]] std::size_t size() const { return recs_.size(); }
  [[nodiscard]] std::size_t r_size() const { return r_count_; }
  [[nodiscard]] std::size_t f_size() const { return f_.size(); }

  /// Bottleneck *level* estimate Be = (Ce − Σ_{Fe} w·λ)/Σ_{Re} w; +inf
  /// when Re=∅.  Session s of Re saturates the link at rate w_s·Be.  May
  /// transiently be negative inside ProcessNewRestricted loops.
  [[nodiscard]] Rate be() const {
    if (r_count_ == 0) return kRateInfinity;
    return (capacity_ - static_cast<Rate>(f_sum_)) /
           static_cast<Rate>(r_weight_);
  }

  // ---- mutations (all keep the indexes and aggregates consistent) ----
  // The handle overloads are the implementations; the id overloads
  // resolve once and forward.

  /// Join: Re ← Re ∪ {s} with µ = WAITING_RESPONSE and weight w.
  /// Returns the new session's handle.
  SessionHandle insert_R(SessionId s, std::int32_t hop, double weight = 1.0);

  /// Re-announced weight from a Probe (API.Change may retune it).  No-op
  /// when unchanged; otherwise adjusts the aggregates (the λ key — a
  /// level — is untouched: the in-flight probe cycle re-establishes it).
  void set_weight(SessionHandle& h, double weight);
  void set_weight(SessionId s, double weight) {
    SessionHandle h = checked(s);
    set_weight(h, weight);
  }

  /// Leave: removes the session from whichever set holds it.  The
  /// handle (and any copy of it) is dead afterwards.
  void erase(SessionHandle& h);
  void erase(SessionId s) {
    SessionHandle h = checked(s);
    erase(h);
  }

  /// Fe → Re, preserving µ and λ.  Requires s ∈ Fe.
  void move_to_R(SessionHandle& h);
  void move_to_R(SessionId s) {
    SessionHandle h = checked(s);
    move_to_R(h);
  }

  /// Re → Fe, preserving µ and λ.  Requires s ∈ Re.
  void move_to_F(SessionHandle& h);
  void move_to_F(SessionId s) {
    SessionHandle h = checked(s);
    move_to_F(h);
  }

  void set_mu(SessionHandle& h, Mu m);
  void set_mu(SessionId s, Mu m) {
    SessionHandle h = checked(s);
    set_mu(h, m);
  }

  /// Response accepted: λes ← λ (a level) and µ ← IDLE in one step.
  void set_idle_with_lambda(SessionHandle& h, Rate lambda);
  void set_idle_with_lambda(SessionId s, Rate lambda) {
    SessionHandle h = checked(s);
    set_idle_with_lambda(h, lambda);
  }

  // ---- protocol predicates ----

  /// ∀r ∈ Re : µ = IDLE ∧ λ = Be, with Re ≠ ∅ (bottleneck condition).
  [[nodiscard]] bool all_R_idle_at_be() const;

  /// ∃s ∈ Fe : λ ≥ Be (drives the ProcessNewRestricted loop).
  [[nodiscard]] bool exists_F_ge_be() const;

  /// max λ over Fe.  Requires Fe ≠ ∅.
  [[nodiscard]] Rate max_F_lambda() const;

  // The set-valued queries fill a caller-provided vector (cleared first)
  // with session ids in (level, id) order, so per-packet callers reuse
  // one scratch buffer instead of allocating a result vector per packet.
  // The by-value forms are conveniences for tests.

  /// {s ∈ Fe : λ ≈ value}.
  void F_at(Rate value, std::vector<SessionId>& out) const;
  [[nodiscard]] std::vector<SessionId> F_at(Rate value) const {
    std::vector<SessionId> out;
    F_at(value, out);
    return out;
  }

  /// {s ∈ Re : µ = IDLE ∧ λ > threshold} (strictly, beyond tolerance).
  void idle_R_above(Rate threshold, std::vector<SessionId>& out) const;
  [[nodiscard]] std::vector<SessionId> idle_R_above(Rate threshold) const {
    std::vector<SessionId> out;
    idle_R_above(threshold, out);
    return out;
  }

  /// {s ∈ Re \ {exclude} : µ = IDLE ∧ λ ≈ value}.
  void idle_R_at(Rate value, SessionId exclude,
                 std::vector<SessionId>& out) const;
  [[nodiscard]] std::vector<SessionId> idle_R_at(
      Rate value, SessionId exclude = SessionId{}) const {
    std::vector<SessionId> out;
    idle_R_at(value, exclude, out);
    return out;
  }

  /// All sessions of Re except `exclude`.  Intended for the bottleneck
  /// broadcast, where all of Re is idle; returns them in rate order.
  void idle_R_all(SessionId exclude, std::vector<SessionId>& out) const;
  [[nodiscard]] std::vector<SessionId> idle_R_all(
      SessionId exclude = SessionId{}) const {
    std::vector<SessionId> out;
    idle_R_all(exclude, out);
    return out;
  }

  /// Link stability (paper Definition 2, per-link part): every session
  /// idle; every Re rate equals Be; if Re ≠ ∅, every Fe rate < Be.
  [[nodiscard]] bool stable() const;

  /// Full internal-consistency audit against a naive reconstruction from
  /// the record map: the |Re|, Σ_{Re} w and Σ_{Fe} w·λ aggregates, weight
  /// validity, membership and λ keys of both ordered indexes (idle-Re and
  /// Fe), index ordering, be(), the record map's own probe-chain
  /// reachability audit, and agreement of the handle path with the id
  /// path (a fresh find() must resolve every iterated record to itself).
  /// Returns an empty string when consistent, else a description of the
  /// first violation.  O(n log n); intended for the property harness
  /// (src/check/), not for per-packet paths.
  [[nodiscard]] std::string audit() const;

  // ---- snapshot/restore (model-checker seam, src/mc/) ----

  /// A copyable value capture of the whole table: every record row plus
  /// the running aggregates VERBATIM (bit for bit — restoring via
  /// recompute would drift from the incremental arithmetic the live
  /// table would have carried, and be() comparisons are exact).  Rows
  /// are sorted by session id, so equal logical states produce equal
  /// snapshots regardless of map iteration order.
  struct Snapshot {
    struct Row {
      SessionId s;
      Mu mu;
      Rate lambda;
      double weight;
      bool in_r;
      std::int32_t hop;
    };
    std::vector<Row> rows;
    std::size_t r_count = 0;
    long double r_weight = 0;
    long double f_sum = 0;
    std::uint64_t f_mutations = 0;
  };

  [[nodiscard]] Snapshot snapshot() const;
  /// Fills `snap` in place, reusing its row storage (snapshot() is this
  /// into a fresh value).
  void snapshot_into(Snapshot& snap) const;

  /// Rewinds the table to a snapshot: records and both ordered indexes
  /// are rebuilt from the rows (membership rule: idle-Re index iff
  /// in_r ∧ µ=IDLE, Fe index iff ¬in_r), aggregates are set verbatim.
  void restore(const Snapshot& snap);

  /// Validates one outstanding handle against a fresh id-path lookup:
  /// empty when the handle still resolves to the same record, else a
  /// description (null handle, unknown session, or a desynced pointer —
  /// e.g. a handle held across the erase of its session).
  [[nodiscard]] std::string audit_handle(SessionHandle h) const;

  /// Iterates (session, in_r, mu, lambda-level) for diagnostics/tests.
  template <class Fn>
  void for_each(Fn&& fn) const {
    recs_.for_each(
        [&fn](SessionId s, const Rec& r) { fn(s, r.in_r, r.mu, r.lambda); });
  }

 private:
  using Index = RateIndex;

  /// Handle deref: while the record map's epoch is unchanged the cached
  /// pointer is exact (one compare); when slots moved, re-resolve with
  /// one probe and refresh the caller's handle in place.  The EXPECT
  /// catches both a find() miss used as a handle and a handle used past
  /// the erase of its own session.  A null handle is never revalidated:
  /// it must throw even if its session id was inserted in the meantime.
  const Rec& rec(SessionHandle& h) const {
    if (h.rec_ != nullptr && h.epoch_ != recs_.epoch()) {
      auto& recs = const_cast<FlatIdMap<SessionTag, Rec>&>(recs_);
      h.rec_ = recs.find(h.s_);
      h.epoch_ = recs_.epoch();
    }
    BNECK_EXPECT(h.rec_ != nullptr, "null or stale session handle");
    return *h.rec_;
  }
  Rec& rec_mut(SessionHandle& h) { return const_cast<Rec&>(rec(h)); }

  /// Id-path resolution for the wrapper methods: one probe, must hit.
  [[nodiscard]] SessionHandle checked(SessionId s) const {
    SessionHandle h = find(s);
    BNECK_EXPECT(h.valid(), "unknown session at link");
    return h;
  }

  Rate capacity_;
  // One resolve() per packet per hop (usually a hint hit, else one
  // probe) yields a handle; subsequent accesses ride the epoch check.
  // The open-addressing map is the hot container of the whole
  // simulation (see base/flat_hash.hpp).
  FlatIdMap<SessionTag, Rec> recs_;
  static_assert(FlatIdMap<SessionTag, Rec>::kSlotBytes == 32,
                "a record-map slot is half a cache line");
  Index idle_r_;  // (λ, s) for s ∈ Re with µ = IDLE (λ is a level)
  Index f_;       // (λ, s) for s ∈ Fe (λ is a level)
  std::size_t r_count_ = 0;
  // Σ_{Re} w.  With unit weights every add/subtract of 1.0 is exact, so
  // this equals r_count_ bit for bit and be() reproduces the unweighted
  // protocol's arithmetic unchanged.
  long double r_weight_ = 0;
  long double f_sum_ = 0;  // Σ_{Fe} w·λ; recomputed periodically to kill drift
  std::uint64_t f_mutations_ = 0;
};

}  // namespace bneck::core
