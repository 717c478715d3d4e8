// RouterLink task (paper Figure 2, generalized to per-session weights).
//
// One instance runs per directed link that carries at least one session,
// at the link's tail router.  It reacts to the seven protocol packets,
// maintains the per-link session table, detects the bottleneck condition
// (all Re sessions idle at level Be) and originates Update/Bottleneck
// packets when convergence conditions change.
//
// Dispatch contract (handle-oriented): each handler resolves the
// packet's session in its link table exactly once —
// LinkSessionTable::resolve() through the hint the session's route keeps
// for this hop (router_plane.hpp), which skips the hash probe while the
// table's record map has not moved a slot since the hint was taken, and
// re-probes once (refreshing the hint) when it has; on_join inserts and
// records the hint instead — and threads the resulting SessionHandle
// through every predicate and mutation of that session.  Handles stay
// usable for the whole handler run; the only mutation that kills one is
// the erase of its own session (on_leave).  The set-valued table queries
// (ProcessNewRestricted, kick batches, the Bottleneck broadcast) return
// session ids, and each victim is resolved once, when it is touched.
//
// All rate arithmetic happens in weight-normalized *level* space (λ/w;
// see link_table.hpp): the handlers below are literally the paper's
// pseudocode with "rate" read as "level", and with unit weights the two
// coincide.  The only weight-aware steps are learning w from Join,
// refreshing it from Probe, and the table's Be denominator.
//
// The task is transport-agnostic: it emits packets through the Transport
// interface each binding implements (bneck.hpp, transport/daemon.hpp).
// Tasks live in the router plane's slab arena (router_plane.hpp) and
// must stay address-stable: RouterLink is deliberately non-copyable and
// non-movable.
#pragma once

#include <vector>

#include "core/link_table.hpp"
#include "core/packet.hpp"

namespace bneck::core {

/// How tasks hand packets to the network.  `from_hop` is the hop index of
/// the emitting task in the packet's session path; the transport computes
/// the physical link, its delay, and the receiving task.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual void send_downstream(Packet p, std::int32_t from_hop) = 0;
  virtual void send_upstream(Packet p, std::int32_t from_hop) = 0;
};

class RouterLink {
 public:
  using SessionHandle = LinkSessionTable::SessionHandle;

  /// `fault_single_kick` enables the documented harness-validation
  /// mutation (BneckConfig::fault_single_kick): kick batches re-probe
  /// only their first session.
  RouterLink(LinkId id, Rate capacity, Transport& transport,
             bool fault_single_kick = false)
      : id_(id),
        table_(capacity),
        transport_(transport),
        fault_single_kick_(fault_single_kick) {}

  RouterLink(const RouterLink&) = delete;
  RouterLink& operator=(const RouterLink&) = delete;

  [[nodiscard]] LinkId id() const { return id_; }
  [[nodiscard]] const LinkSessionTable& table() const { return table_; }
  [[nodiscard]] bool stable() const { return table_.stable(); }

  /// Rewinds the session table to a snapshot (model-checker restore
  /// seam; the scratch buffer is transient between handler runs and
  /// needs no capture).
  void restore_table(const LinkSessionTable::Snapshot& snap) {
    table_.restore(snap);
  }

  using Hint = LinkSessionTable::Hint;

  // Packet handlers; p.hop is this link's hop index in p.session's path
  // and `hint` the session's cached record at this link.  Each resolves
  // p.session to a handle once, up front, through the hint.
  void on_join(const Packet& p, Hint& hint);
  void on_probe(const Packet& p, Hint& hint);
  void on_response(const Packet& p, Hint& hint);
  void on_update(const Packet& p, Hint& hint);
  void on_bottleneck(const Packet& p, Hint& hint);
  void on_set_bottleneck(const Packet& p, Hint& hint);
  void on_leave(const Packet& p, Hint& hint);

 private:
  /// Figure 2 lines 4-10: pull sessions whose recorded rate reached Be
  /// back from Fe into Re, then trigger a re-probe (Update) for every
  /// idle Re session whose rate now exceeds Be.
  void process_new_restricted();

  /// Resolves s once, marks it WAITING_PROBE and emits Update upstream
  /// from this link.
  void kick(SessionId s);

  /// kick() for every session in `batch` — or only the first when the
  /// fault_single_kick mutation is armed.
  void kick_batch(const std::vector<SessionId>& batch);

  LinkId id_;
  LinkSessionTable table_;
  Transport& transport_;
  bool fault_single_kick_;
  // Reused buffer for the table's set-valued queries (session ids);
  // the handlers never overlap two live query results, and
  // packet handling is synchronous (emitted packets are delivered by
  // later simulator events), so one buffer per link suffices and saves
  // an allocation per query.
  std::vector<SessionId> scratch_;
};

}  // namespace bneck::core
