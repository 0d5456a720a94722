#ifndef POLYDAB_RECOVERY_CHECKPOINT_H_
#define POLYDAB_RECOVERY_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"

/// \file checkpoint.h
/// Durable coordinator snapshots (docs/RECOVERY.md). A checkpoint block
/// is the coordinator's *entire* mutable state at the end of one tick —
/// query slots and installed plans, primary/secondary DAB assignments and
/// anchors, the in-flight event heap, the reliability protocol's
/// seq/ack/retransmit/lease arrays, the two persistent RNG streams, every
/// registry instrument, and the service driver's opaque state — rendered
/// as strictly parsed JSON lines (format tag polydab.ckpt.v1) in the same
/// json_util dialect as traces and run reports. Blocks are appended to an
/// accumulating file; the loader takes the last *complete* block (header
/// through digest footer), so a crash mid-write simply falls back to the
/// previous snapshot. Corruption is never repaired silently: version
/// skew, unknown keys, missing fields, out-of-range integers, a digest
/// mismatch and a truncated final line are all InvalidArgument naming the
/// line number.

namespace polydab::recovery {

// Field lists. Every fixed-shape record below names its on-disk fields
// exactly once, in key order, in a static `Fields(self, v)` template
// (CheckpointState has one per singleton record: HeaderFields,
// MetricFields, ItemFields). A visitor `v` is called as `v(key, member)`
// per field, `v(key, member, kToken)` for a double spelled as an
// EncodeDouble string token (±inf allowed), and `v.Count(key, records,
// noun)` for a header count of a record vector. The block encoder, the
// strict decoder and DiffCheckpoints are generic walks over these lists,
// so a field added here is written, parsed, range-checked and diffed
// with no other edit. `self` may be const (encode, diff) or not (decode).

struct TokenTag {};
inline constexpr TokenTag kToken{};

/// Per-query-slot coordinator state. The engine keeps one per slot, live
/// or dead (dead slots keep their index), and checkpoints it verbatim.
struct QuerySlot {
  bool alive = true;
  int reg_tick = 0;
  int dereg_tick = -1;       ///< -1 = never deregistered
  double violated_time = 0.0;   ///< fidelity loss, in sampled seconds
  double last_user_value = 0.0; ///< the query value the user last saw
  int shard = 0;             ///< coordinator lane (-1: dead slot under churn)
  int degraded_items = 0;    ///< fault mode: items degrading this query
  uint64_t degrade_event = 0;   ///< fault mode: trace id of the degrade
};

/// One query slot record: the query itself, the incremental evaluator's
/// delta-chain value and the slot state.
struct CheckpointQuery {
  int id = 0;
  double qab = 0.0;
  std::string poly;       ///< EncodePolynomial
  double query_value = 0.0;
  QuerySlot slot;

  template <class Self, class V>
  static void Fields(Self& s, V& v) {
    v("id", s.id);
    v("qab", s.qab);
    v("poly", s.poly);
    v("alive", s.slot.alive);
    v("reg", s.slot.reg_tick);
    v("dereg", s.slot.dereg_tick);
    v("viol", s.slot.violated_time);
    v("lastv", s.slot.last_user_value);
    v("shard", s.slot.shard);
    v("qval", s.query_value);
    v("degi", s.slot.degraded_items);
    v("dege", s.slot.degrade_event);
  }
};

/// One installed plan part of one query slot.
struct CheckpointPart {
  int slot = 0;
  int part = 0;
  std::string poly;  ///< the sub-polynomial, EncodePolynomial
  double pqab = 0.0; ///< the part's share of the query accuracy bound
  std::vector<int> vars;
  Vector primary;    ///< aligned with vars
  Vector secondary;  ///< aligned with vars
  double recompute_rate = 0.0;
  bool single_dab = false;
  bool never_stale = false;
  Vector anchor;     ///< item values the DABs anchor at

  template <class Self, class V>
  static void Fields(Self& s, V& v) {
    v("slot", s.slot);
    v("part", s.part);
    v("poly", s.poly);
    v("pqab", s.pqab);
    v("vars", s.vars);
    v("pri", s.primary);
    v("sec", s.secondary);
    v("rate", s.recompute_rate);
    v("sdab", s.single_dab);
    v("nstale", s.never_stale);
    v("anchor", s.anchor);
  }
};

/// One queued simulator message. The engine's event heap is a vector of
/// these, serialized in storage order and restored as-is — the heap's
/// layout is specified, so the bytes are deterministic.
struct QueuedEvent {
  double time = 0.0;
  int type = 0;    ///< the engine's EventType
  int item = -1;   ///< the source id for heartbeats
  double value = 0.0;  ///< refresh: item value; dab-change: filter width
  uint64_t trace_id = 0;  ///< the emission this message carries (0 untraced)
  double wait = 0.0;      ///< coordinator-queue wait across deferrals
  int64_t seq = 0;        ///< fault mode: refresh/ack seq (0 = unsequenced)

  template <class Self, class V>
  static void Fields(Self& s, V& v) {
    v("time", s.time);
    v("k", s.type);
    v("item", s.item);
    v("val", s.value);
    v("tid", s.trace_id);
    v("wait", s.wait);
    v("seq", s.seq);
  }
};

/// Per-source reliability protocol state (fault mode only).
struct SourceState {
  int source = 0;
  double crashed_until = 0.0;   ///< down until this time
  uint64_t crash_event = 0;     ///< trace id of the crash
  double next_heartbeat = 0.0;
  double last_contact = 0.0;    ///< last contact seen at the coordinator
  uint64_t contact_event = 0;   ///< trace id of that contact

  template <class Self, class V>
  static void Fields(Self& s, V& v) {
    v("i", s.source);
    v("cu", s.crashed_until);
    v("ce", s.crash_event);
    v("nh", s.next_heartbeat);
    v("lc", s.last_contact);
    v("cte", s.contact_event);
  }
};

/// Per-item reliability protocol state (fault mode only).
struct ItemFaultState {
  int item = 0;
  int64_t next_seq = 1;       ///< next refresh seq the source sends
  int64_t delivered_seq = 0;  ///< highest seq delivered at the coordinator
  int64_t drop_seq = 0;       ///< newest dropped data seq
  uint64_t drop_eid = 0;      ///< trace id of that drop
  bool expired = false;       ///< lease currently lapsed
  uint64_t expire_event = 0;  ///< trace id of the expiry
  /// The source's latest unacked refresh, kept for timeout retransmission
  /// and replaced wholesale when a newer value pushes.
  struct Pending {
    bool live = false;
    int64_t seq = 0;
    double value = 0.0;
    uint64_t emit_id = 0;  ///< latest emission (refresh_emitted/retransmit)
    double next_retx = 0.0;
    int attempts = 0;
  } pending;

  template <class Self, class V>
  static void Fields(Self& s, V& v) {
    v("i", s.item);
    v("ns", s.next_seq);
    v("ds", s.delivered_seq);
    v("dr", s.drop_seq);
    v("de", s.drop_eid);
    v("exp", s.expired);
    v("ee", s.expire_event);
    v("pl", s.pending.live);
    v("ps", s.pending.seq);
    v("pv", s.pending.value);
    v("pe", s.pending.emit_id);
    v("pr", s.pending.next_retx);
    v("pa", s.pending.attempts);
  }
};

/// One registry instrument. kind is 'c' (counter), 'g' (gauge) or 'h'
/// (histogram); the keys after the name depend on it. Instrument
/// *presence* matters as much as values — the run report prints every
/// registered name — so even zero-valued instruments are recorded.
struct CheckpointInstrument {
  char kind = 'c';
  std::string name;
  int64_t count = 0;                              ///< 'c' value / 'h' count
  double value = 0.0;                             ///< 'g'
  double sum = 0.0;                               ///< 'h'
  double raw_min = 0.0;                           ///< 'h' (+inf while empty)
  double raw_max = 0.0;                           ///< 'h' (-inf while empty)
  std::vector<std::pair<int, int64_t>> buckets;   ///< 'h' non-empty buckets

  template <class Self, class V>
  static void Fields(Self& s, V& v) {
    v("k", s.kind);
    v("name", s.name);
    if (s.kind == 'c') {
      v("v", s.count);
    } else if (s.kind == 'g') {
      v("v", s.value);
    } else if (s.kind == 'h') {
      v("count", s.count);
      v("sum", s.sum);
      v("min", s.raw_min, kToken);
      v("max", s.raw_max, kToken);
      v("b", s.buckets);
    }
  }
};

/// A full snapshot. Plain data; the engine builds/applies it, this module
/// only moves it to and from disk.
struct CheckpointState {
  int tick = 0;         ///< snapshot taken at the end of this tick
  int ticks_seen = 0;
  uint32_t config_fp = 0;  ///< FNV-1a of SimConfig::Describe()
  int num_items = 0;
  int num_sources = 0;
  int num_shards = 0;
  uint64_t trace_next_id = 0;  ///< first event id after the snapshot
  uint64_t ckpt_end_id = 0;    ///< id of this snapshot's checkpoint_end
  bool fault_mode = false;
  bool dqi_built = false;      ///< dynamic query index existed (churn ran)
  int64_t updates_since_rebase = 0;  ///< incremental evaluator drift clock

  // SimMetrics, field for field.
  int64_t refreshes = 0;
  int64_t recomputations = 0;
  int64_t dab_change_messages = 0;
  int64_t user_notifications = 0;
  int64_t solver_failures = 0;
  int64_t fault_drops = 0;
  int64_t retransmits = 0;
  int64_t duplicates_suppressed = 0;
  int64_t lease_expiries = 0;
  double degraded_query_seconds = 0.0;

  std::vector<CheckpointQuery> queries;
  std::vector<CheckpointPart> parts;

  // Item-indexed coordinator vectors.
  Vector view;
  Vector source_value;
  Vector last_pushed;
  Vector installed_dab;   ///< +inf for unconstrained items
  Vector min_primary;     ///< +inf for unconstrained items
  std::vector<int> item_home_shard;
  std::vector<std::vector<int>> item_queries;  ///< query slots per item
  std::vector<std::vector<int>> item_shards;   ///< lanes per item
  Vector shard_free_at;

  std::vector<QueuedEvent> events;          ///< heap array, verbatim
  std::vector<SourceState> sources;         ///< fault mode only
  std::vector<ItemFaultState> item_fault;   ///< fault mode only
  std::vector<CheckpointInstrument> instruments;

  std::string delay_rng;  ///< mt19937_64 stream state, space-separated
  std::string fault_rng;
  std::string service_state;  ///< ServiceHooks::SnapshotState, opaque

  /// The "hdr" record (after its "v" format tag).
  template <class Self, class V>
  static void HeaderFields(Self& s, V& v) {
    v("tick", s.tick);
    v("ticks_seen", s.ticks_seen);
    v("config_fp", s.config_fp);
    v("items", s.num_items);
    v("sources", s.num_sources);
    v("shards", s.num_shards);
    v("trace_next_id", s.trace_next_id);
    v("ckpt_end_id", s.ckpt_end_id);
    v("fault", s.fault_mode);
    v("dqi", s.dqi_built);
    v("usr", s.updates_since_rebase);
    v.Count("nq", s.queries, "query");
    v.Count("np", s.parts, "part");
    v.Count("nev", s.events, "event");
    v("delay_rng", s.delay_rng);
    v("fault_rng", s.fault_rng);
    v("svc", s.service_state);
  }
  /// The "met" record.
  template <class Self, class V>
  static void MetricFields(Self& s, V& v) {
    v("refreshes", s.refreshes);
    v("recomputations", s.recomputations);
    v("dab_changes", s.dab_change_messages);
    v("notifications", s.user_notifications);
    v("solver_failures", s.solver_failures);
    v("drops", s.fault_drops);
    v("retransmits", s.retransmits);
    v("dups", s.duplicates_suppressed);
    v("leases", s.lease_expiries);
    v("degraded_s", s.degraded_query_seconds);
  }
  /// The "items" record. The sparse per-item slot and lane lists go in
  /// optional-keyed "iq" records instead.
  template <class Self, class V>
  static void ItemFields(Self& s, V& v) {
    v("view", s.view);
    v("src", s.source_value);
    v("pushed", s.last_pushed);
    v("inst", s.installed_dab);
    v("minp", s.min_primary);
    v("home", s.item_home_shard);
    v("free", s.shard_free_at);
  }
};

/// Append one snapshot block (header .. digest footer) to \p path,
/// creating the file if needed. Flushes before returning so the block is
/// durable against a subsequent simulated crash.
Status WriteCheckpoint(const CheckpointState& state, const std::string& path);

/// Load the last complete block of \p path. Incomplete trailing blocks
/// (in-progress or torn writes, i.e. a header without its matching
/// footer) are tolerated only at the end of the file; everything else is
/// a named, line-numbered error.
Status LoadLatestCheckpoint(const std::string& path, CheckpointState* out);

/// Human-oriented multi-line summary of one snapshot (polydab_ckpt).
std::string SummarizeCheckpoint(const CheckpointState& state);

/// Compare two snapshots field by field — every field of every record,
/// as serialized — appending one "  record[index].key: a vs b" line per
/// difference to \p out (capped at \p max_lines), and return the total
/// number of differences.
int DiffCheckpoints(const CheckpointState& a, const CheckpointState& b,
                    int max_lines, std::string* out);

}  // namespace polydab::recovery

#endif  // POLYDAB_RECOVERY_CHECKPOINT_H_
