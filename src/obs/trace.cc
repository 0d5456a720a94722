#include "obs/trace.h"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstring>

#include "common/file_util.h"
#include "common/logging.h"
#include "obs/json_util.h"

namespace polydab::obs {

namespace {

struct KindName {
  TraceEventKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {TraceEventKind::kRefreshEmitted, "refresh_emitted"},
    {TraceEventKind::kRefreshArrived, "refresh_arrived"},
    {TraceEventKind::kSecondaryViolation, "secondary_violation"},
    {TraceEventKind::kRecomputeStart, "recompute_start"},
    {TraceEventKind::kRecomputeEnd, "recompute_end"},
    {TraceEventKind::kDabChangeSent, "dab_change_sent"},
    {TraceEventKind::kDabChangeInstalled, "dab_change_installed"},
    {TraceEventKind::kAaoSolve, "aao_solve"},
    {TraceEventKind::kUserNotification, "user_notification"},
    {TraceEventKind::kFidelityViolation, "fidelity_violation"},
    {TraceEventKind::kPlannerPlan, "planner_plan"},
    {TraceEventKind::kPlannerReplan, "planner_replan"},
    {TraceEventKind::kShardBarrier, "shard_barrier"},
    {TraceEventKind::kFaultDrop, "fault_drop"},
    {TraceEventKind::kRetransmit, "retransmit"},
    {TraceEventKind::kAck, "ack"},
    {TraceEventKind::kDupSuppressed, "dup_suppressed"},
    {TraceEventKind::kHeartbeat, "heartbeat"},
    {TraceEventKind::kCrash, "crash"},
    {TraceEventKind::kLeaseExpire, "lease_expire"},
    {TraceEventKind::kDegrade, "degrade"},
    {TraceEventKind::kRecover, "recover"},
    {TraceEventKind::kLaneStall, "lane_stall"},
    {TraceEventKind::kQueryRegister, "query_register"},
    {TraceEventKind::kQueryModify, "query_modify"},
    {TraceEventKind::kQueryDeregister, "query_deregister"},
    {TraceEventKind::kAdmissionReject, "admission_reject"},
    {TraceEventKind::kPlanPatch, "plan_patch"},
    {TraceEventKind::kAlertFire, "alert_fire"},
    {TraceEventKind::kAlertResolve, "alert_resolve"},
    {TraceEventKind::kCheckpointBegin, "checkpoint_begin"},
    {TraceEventKind::kCheckpointEnd, "checkpoint_end"},
    {TraceEventKind::kCoordCrash, "coord_crash"},
    {TraceEventKind::kRecoveryReplay, "recovery_replay"},
};

void AppendNumberField(std::string* out, const char* key, double v) {
  *out += ",\"";
  *out += key;
  *out += "\":";
  *out += JsonNumber(v);
}

void AppendIntField(std::string* out, const char* key, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  *out += ",\"";
  *out += key;
  *out += "\":";
  *out += buf;
}

/// One canonical event line. Identity fields are omitted at -1, payloads
/// at 0 — the parser restores the defaults, so omission is lossless.
void AppendEventLine(std::string* out, const TraceEvent& e) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, e.id);
  *out += "{\"type\":\"event\",\"id\":";
  *out += buf;
  *out += ",\"t\":";
  *out += JsonNumber(e.time);
  *out += ",\"kind\":\"";
  *out += Name(e.kind);
  *out += "\"";
  if (e.node != -1) AppendIntField(out, "node", e.node);
  if (e.source != -1) AppendIntField(out, "source", e.source);
  if (e.item != -1) AppendIntField(out, "item", e.item);
  if (e.query != -1) AppendIntField(out, "query", e.query);
  if (e.part != -1) AppendIntField(out, "part", e.part);
  if (e.shard != -1) AppendIntField(out, "shard", e.shard);
  if (e.cause != 0) {
    AppendIntField(out, "cause", static_cast<int64_t>(e.cause));
  }
  if (e.a != 0.0) AppendNumberField(out, "a", e.a);
  if (e.b != 0.0) AppendNumberField(out, "b", e.b);
  if (e.c != 0.0) AppendNumberField(out, "c", e.c);
  if (e.flag != 0) AppendIntField(out, "flag", e.flag);
  *out += "}\n";
}

void AppendQueryInfoLine(std::string* out, const TraceQueryInfo& q) {
  *out += "{\"type\":\"query_info\"";
  AppendIntField(out, "query", q.query);
  if (q.node != -1) AppendIntField(out, "node", q.node);
  if (q.shard != -1) AppendIntField(out, "shard", q.shard);
  if (q.qab != 0.0) AppendNumberField(out, "qab", q.qab);
  std::string items;
  for (size_t i = 0; i < q.items.size(); ++i) {
    if (i > 0) items += ' ';
    items += std::to_string(q.items[i]);
  }
  *out += ",\"items\":\"" + JsonEscape(items) + "\"}\n";
}

void AppendSummaryLine(std::string* out, const TraceRunSummary& s) {
  *out += "{\"type\":\"run_summary\"";
  AppendIntField(out, "node", s.node);
  AppendIntField(out, "queries", s.queries);
  AppendIntField(out, "ticks", s.ticks);
  AppendIntField(out, "fidelity_stride", s.fidelity_stride);
  AppendNumberField(out, "violation_tol", s.violation_tol);
  AppendIntField(out, "refreshes", s.refreshes);
  AppendIntField(out, "recomputations", s.recomputations);
  AppendIntField(out, "dab_change_messages", s.dab_change_messages);
  AppendIntField(out, "user_notifications", s.user_notifications);
  AppendIntField(out, "solver_failures", s.solver_failures);
  AppendNumberField(out, "mean_fidelity_loss_pct", s.mean_fidelity_loss_pct);
  // Fault-mode counters, omitted at zero so fault-free summaries keep
  // their exact historical bytes.
  if (s.fault_drops != 0) AppendIntField(out, "fault_drops", s.fault_drops);
  if (s.retransmits != 0) AppendIntField(out, "retransmits", s.retransmits);
  if (s.duplicates_suppressed != 0) {
    AppendIntField(out, "duplicates_suppressed", s.duplicates_suppressed);
  }
  if (s.lease_expiries != 0) {
    AppendIntField(out, "lease_expiries", s.lease_expiries);
  }
  if (s.degraded_query_seconds != 0.0) {
    AppendNumberField(out, "degraded_query_seconds",
                      s.degraded_query_seconds);
  }
  *out += "}\n";
}

void AppendInfoLine(std::string* out, const std::string& key,
                    const std::string& value) {
  *out += "{\"type\":\"info\",\"key\":\"" + JsonEscape(key) +
          "\",\"value\":\"" + JsonEscape(value) + "\"}\n";
}

/// Field accessors for the flat-map parse results, with required/default
/// semantics per record type. Every key a record reads is marked used, so
/// Finish() can fail closed on keys no reader asked for: a misspelt or
/// retired key, or a known key carrying the wrong JSON type.
class Fields {
 public:
  Fields(const std::string& line,
         const std::map<std::string, std::string>& strings,
         const std::map<std::string, double>& numbers)
      : line_(line), strings_(strings), numbers_(numbers) {}

  Result<double> Num(const char* key) {
    auto it = numbers_.find(key);
    if (it == numbers_.end()) {
      return Status::InvalidArgument("trace line missing '" +
                                     std::string(key) + "': " + line_);
    }
    MarkUsed(it->first);
    return it->second;
  }
  double NumOr(const char* key, double dflt) {
    auto it = numbers_.find(key);
    if (it == numbers_.end()) return dflt;
    MarkUsed(it->first);
    return it->second;
  }
  Result<std::string> Str(const char* key) {
    auto it = strings_.find(key);
    if (it == strings_.end()) {
      return Status::InvalidArgument("trace line missing '" +
                                     std::string(key) + "': " + line_);
    }
    MarkUsed(it->first);
    return it->second;
  }

  /// OK when every key on the line was read (each reader reads a key at
  /// most once, so a count suffices on the happy path).
  Status Finish() const {
    if (num_used_ == strings_.size() + numbers_.size()) {
      return Status::OK();
    }
    auto unused = [this](const std::string& key) {
      const auto end = used_.begin() + static_cast<long>(num_used_);
      return std::find(used_.begin(), end, &key) == end;
    };
    for (const auto& [key, value] : strings_) {
      if (unused(key)) return Unknown(key);
    }
    for (const auto& [key, value] : numbers_) {
      if (unused(key)) return Unknown(key);
    }
    return Status::OK();
  }

 private:
  /// Parsing runs once per trace line, so the used set lives inline
  /// rather than on the heap. No record type reads more than kMaxKeys
  /// keys, so the check below only fires on a reader bug.
  static constexpr size_t kMaxKeys = 32;

  void MarkUsed(const std::string& key) {
    POLYDAB_CHECK(num_used_ < kMaxKeys);
    used_[num_used_++] = &key;
  }

  Status Unknown(const std::string& key) const {
    return Status::InvalidArgument("unknown or mistyped key '" + key +
                                   "': " + line_);
  }

  const std::string& line_;
  const std::map<std::string, std::string>& strings_;
  const std::map<std::string, double>& numbers_;
  std::array<const std::string*, kMaxKeys> used_{};
  size_t num_used_ = 0;
};

Status ParseLineInto(const std::string& line, TraceFile* out) {
  std::map<std::string, std::string> strings;
  std::map<std::string, double> numbers;
  POLYDAB_RETURN_NOT_OK(ParseFlatJsonLine(line, &strings, &numbers));
  Fields f(line, strings, numbers);
  POLYDAB_ASSIGN_OR_RETURN(std::string type, f.Str("type"));

  if (type == "info") {
    POLYDAB_ASSIGN_OR_RETURN(std::string key, f.Str("key"));
    POLYDAB_ASSIGN_OR_RETURN(std::string value, f.Str("value"));
    POLYDAB_RETURN_NOT_OK(f.Finish());
    out->info[key] = std::move(value);
    return Status::OK();
  }
  if (type == "query_info") {
    TraceQueryInfo q;
    POLYDAB_ASSIGN_OR_RETURN(double qid, f.Num("query"));
    q.query = static_cast<int32_t>(qid);
    q.node = static_cast<int32_t>(f.NumOr("node", -1.0));
    q.shard = static_cast<int32_t>(f.NumOr("shard", -1.0));
    q.qab = f.NumOr("qab", 0.0);
    POLYDAB_ASSIGN_OR_RETURN(std::string items, f.Str("items"));
    const char* p = items.c_str();
    while (*p != '\0') {
      char* end = nullptr;
      const long v = std::strtol(p, &end, 10);
      if (end == p) {
        return Status::InvalidArgument("bad items list: " + line);
      }
      q.items.push_back(static_cast<int32_t>(v));
      p = end;
      while (*p == ' ') ++p;
    }
    POLYDAB_RETURN_NOT_OK(f.Finish());
    out->queries.push_back(std::move(q));
    return Status::OK();
  }
  if (type == "event") {
    TraceEvent e;
    POLYDAB_ASSIGN_OR_RETURN(double id, f.Num("id"));
    e.id = static_cast<uint64_t>(id);
    POLYDAB_ASSIGN_OR_RETURN(e.time, f.Num("t"));
    POLYDAB_ASSIGN_OR_RETURN(std::string kind, f.Str("kind"));
    if (!ParseTraceEventKind(kind, &e.kind)) {
      return Status::InvalidArgument("unknown event kind '" + kind +
                                     "': " + line);
    }
    e.node = static_cast<int32_t>(f.NumOr("node", -1.0));
    e.source = static_cast<int32_t>(f.NumOr("source", -1.0));
    e.item = static_cast<int32_t>(f.NumOr("item", -1.0));
    e.query = static_cast<int32_t>(f.NumOr("query", -1.0));
    e.part = static_cast<int32_t>(f.NumOr("part", -1.0));
    e.shard = static_cast<int32_t>(f.NumOr("shard", -1.0));
    e.cause = static_cast<uint64_t>(f.NumOr("cause", 0.0));
    e.a = f.NumOr("a", 0.0);
    e.b = f.NumOr("b", 0.0);
    e.c = f.NumOr("c", 0.0);
    e.flag = static_cast<int32_t>(f.NumOr("flag", 0.0));
    POLYDAB_RETURN_NOT_OK(f.Finish());
    out->events.push_back(e);
    return Status::OK();
  }
  if (type == "run_summary") {
    TraceRunSummary s;
    POLYDAB_ASSIGN_OR_RETURN(double node, f.Num("node"));
    s.node = static_cast<int32_t>(node);
    POLYDAB_ASSIGN_OR_RETURN(double queries, f.Num("queries"));
    s.queries = static_cast<int64_t>(queries);
    POLYDAB_ASSIGN_OR_RETURN(double ticks, f.Num("ticks"));
    s.ticks = static_cast<int64_t>(ticks);
    POLYDAB_ASSIGN_OR_RETURN(double stride, f.Num("fidelity_stride"));
    s.fidelity_stride = static_cast<int64_t>(stride);
    POLYDAB_ASSIGN_OR_RETURN(s.violation_tol, f.Num("violation_tol"));
    POLYDAB_ASSIGN_OR_RETURN(double refreshes, f.Num("refreshes"));
    s.refreshes = static_cast<int64_t>(refreshes);
    POLYDAB_ASSIGN_OR_RETURN(double recomputations, f.Num("recomputations"));
    s.recomputations = static_cast<int64_t>(recomputations);
    POLYDAB_ASSIGN_OR_RETURN(double dab_changes, f.Num("dab_change_messages"));
    s.dab_change_messages = static_cast<int64_t>(dab_changes);
    POLYDAB_ASSIGN_OR_RETURN(double notifications,
                             f.Num("user_notifications"));
    s.user_notifications = static_cast<int64_t>(notifications);
    POLYDAB_ASSIGN_OR_RETURN(double failures, f.Num("solver_failures"));
    s.solver_failures = static_cast<int64_t>(failures);
    POLYDAB_ASSIGN_OR_RETURN(s.mean_fidelity_loss_pct,
                             f.Num("mean_fidelity_loss_pct"));
    s.fault_drops = static_cast<int64_t>(f.NumOr("fault_drops", 0.0));
    s.retransmits = static_cast<int64_t>(f.NumOr("retransmits", 0.0));
    s.duplicates_suppressed =
        static_cast<int64_t>(f.NumOr("duplicates_suppressed", 0.0));
    s.lease_expiries = static_cast<int64_t>(f.NumOr("lease_expiries", 0.0));
    s.degraded_query_seconds = f.NumOr("degraded_query_seconds", 0.0);
    POLYDAB_RETURN_NOT_OK(f.Finish());
    out->summaries.push_back(s);
    return Status::OK();
  }
  return Status::InvalidArgument("unknown trace line type '" + type + "'");
}

}  // namespace

const char* Name(TraceEventKind kind) {
  for (const KindName& kn : kKindNames) {
    if (kn.kind == kind) return kn.name;
  }
  return "?";
}

bool ParseTraceEventKind(const std::string& name, TraceEventKind* out) {
  for (const KindName& kn : kKindNames) {
    if (name == kn.name) {
      *out = kn.kind;
      return true;
    }
  }
  return false;
}

std::string TraceToJsonLines(const TraceFile& trace) {
  std::string out;
  // Events dominate; one line is typically under 120 bytes.
  out.reserve(trace.events.size() * 96 + 1024);
  for (const auto& [key, value] : trace.info) {
    AppendInfoLine(&out, key, value);
  }
  for (const TraceQueryInfo& q : trace.queries) {
    AppendQueryInfoLine(&out, q);
  }
  for (const TraceEvent& e : trace.events) {
    AppendEventLine(&out, e);
  }
  for (const TraceRunSummary& s : trace.summaries) {
    AppendSummaryLine(&out, s);
  }
  return out;
}

Result<TraceFile> ParseTraceJsonLines(const std::string& text) {
  TraceFile trace;
  size_t start = 0;
  int64_t line_number = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    const bool terminated = end != std::string::npos;
    if (!terminated) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (!terminated) {
      // Every writer (TraceToJsonLines, the streaming sink) terminates
      // each record with '\n', so a non-empty unterminated final line can
      // only be a partial write — truncation at EOF. Reject it even if
      // the fragment happens to parse as a complete record.
      return Status::InvalidArgument(
          "line " + std::to_string(line_number) +
          ": truncated record at end of file (no trailing newline; "
          "partial write?)");
    }
    Status parsed = ParseLineInto(line, &trace);
    if (!parsed.ok()) {
      return Status(parsed.code(), "line " + std::to_string(line_number) +
                                       ": " + parsed.message());
    }
  }
  return trace;
}

Status SaveTraceFile(const TraceFile& trace, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open '" + path + "' for writing");
  }
  const std::string body = TraceToJsonLines(trace);
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const bool ok = written == body.size() && std::fclose(f) == 0;
  if (!ok) return Status::Internal("short write to '" + path + "'");
  return Status::OK();
}

Result<TraceFile> LoadTraceFile(const std::string& path) {
  std::string text;
  POLYDAB_RETURN_NOT_OK(ReadFileToString(path, &text));
  return ParseTraceJsonLines(text);
}

TraceSink::TraceSink(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  buffer_.reserve(capacity_);
}

TraceSink::~TraceSink() { Finish(); }

Status TraceSink::StreamTo(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (next_id_.load(std::memory_order_relaxed) != 1) {
    return Status::InvalidArgument(
        "StreamTo must be called before the first Emit");
  }
  if (file_ != nullptr) {
    return Status::InvalidArgument("trace sink already streaming");
  }
  file_ = std::fopen(path.c_str(), "w");
  if (file_ == nullptr) {
    return Status::InvalidArgument("cannot open '" + path + "' for writing");
  }
  path_ = path;
  return Status::OK();
}

uint64_t TraceSink::Emit(TraceEvent e) {
  std::lock_guard<std::mutex> lock(mu_);
  // The id must be assigned inside the critical section: with concurrent
  // emitters (the rt:: worker pool), taking the id first would let two
  // threads buffer out of id order, breaking the record-order == id-order
  // invariant the streamed file and Collect() rely on (regression:
  // obs_test ConcurrentEmitsKeepIdOrder).
  e.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  if (observer_ != nullptr) observer_->OnEvent(e);
  if (discard_) return e.id;
  if (buffer_.size() >= capacity_ && file_ != nullptr) {
    // Streaming mode: the ring segment is full, drain it to disk. A write
    // failure here must not crash the traced run; Finish reports it.
    (void)FlushLocked();
  }
  buffer_.push_back(e);  // capture mode grows past capacity_ (amortized)
  return e.id;
}

void TraceSink::SetObserver(TraceObserver* observer) {
  std::lock_guard<std::mutex> lock(mu_);
  observer_ = observer;
}

void TraceSink::SetDiscard(bool discard) {
  std::lock_guard<std::mutex> lock(mu_);
  discard_ = discard;
}

void TraceSink::SetInfo(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  info_[key] = value;
}

void TraceSink::AddQueryInfo(TraceQueryInfo info) {
  std::lock_guard<std::mutex> lock(mu_);
  if (suppress_query_infos_) return;
  queries_.push_back(std::move(info));
}

void TraceSink::AddRunSummary(const TraceRunSummary& summary) {
  std::lock_guard<std::mutex> lock(mu_);
  summaries_.push_back(summary);
}

Status TraceSink::FlushLocked() {
  std::string out;
  for (const auto& [key, value] : info_) {
    auto [it, fresh] = info_written_.emplace(key, value);
    if (!fresh && it->second == value) continue;
    it->second = value;
    AppendInfoLine(&out, key, value);
  }
  for (const TraceEvent& e : buffer_) {
    AppendEventLine(&out, e);
  }
  buffer_.clear();
  const size_t written = std::fwrite(out.data(), 1, out.size(), file_);
  if (written != out.size()) {
    return Status::Internal("short write to '" + path_ + "'");
  }
  return Status::OK();
}

Status TraceSink::Finish() {
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_ || file_ == nullptr) {
    finished_ = true;
    return Status::OK();
  }
  finished_ = true;
  Status flushed = FlushLocked();  // also writes info set since last flush
  // Trailing metadata: query sets and run summaries.
  std::string out;
  for (const TraceQueryInfo& q : queries_) {
    AppendQueryInfoLine(&out, q);
  }
  for (const TraceRunSummary& s : summaries_) {
    AppendSummaryLine(&out, s);
  }
  const size_t written = std::fwrite(out.data(), 1, out.size(), file_);
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  POLYDAB_RETURN_NOT_OK(flushed);
  if (written != out.size() || !closed) {
    return Status::Internal("short write to '" + path_ + "'");
  }
  return Status::OK();
}

TraceFile TraceSink::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  TraceFile trace;
  trace.info = info_;
  trace.queries = queries_;
  trace.events = buffer_;
  trace.summaries = summaries_;
  return trace;
}

}  // namespace polydab::obs
