#include "obs/timeseries.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/file_util.h"
#include "common/logging.h"
#include "obs/json_util.h"
#include "obs/trace_check.h"

namespace polydab::obs {

namespace {

/// Catalog entry: serialization name plus field accessors on SeriesWindow.
/// Integer fields pass through double (exact below 2^53, far above any
/// per-window count).
struct MetricField {
  const char* name;
  double (*get)(const SeriesWindow&);
  void (*set)(SeriesWindow*, double);
};

#define POLYDAB_SERIES_INT_FIELD(json_name, member)                         \
  MetricField {                                                             \
    json_name,                                                              \
        [](const SeriesWindow& w) { return static_cast<double>(w.member); },\
        [](SeriesWindow* w, double v) {                                     \
          w->member = static_cast<int64_t>(v);                              \
        }                                                                   \
  }
#define POLYDAB_SERIES_DBL_FIELD(json_name, member)            \
  MetricField {                                                \
    json_name, [](const SeriesWindow& w) { return w.member; }, \
        [](SeriesWindow* w, double v) { w->member = v; }       \
  }

const MetricField kMetricFields[] = {
    POLYDAB_SERIES_INT_FIELD("sim.coordinator.refreshes", refreshes),
    POLYDAB_SERIES_INT_FIELD("sim.coordinator.recomputations", recomputations),
    POLYDAB_SERIES_INT_FIELD("sim.coordinator.dab_change_messages",
                             dab_changes),
    POLYDAB_SERIES_INT_FIELD("sim.coordinator.user_notifications",
                             notifications),
    POLYDAB_SERIES_INT_FIELD("sim.coordinator.solver_failures",
                             solver_failures),
    POLYDAB_SERIES_INT_FIELD("sim.fidelity.violations", violations),
    POLYDAB_SERIES_INT_FIELD("sim.fidelity.samples", samples),
    POLYDAB_SERIES_DBL_FIELD("sim.fidelity.violation_rate", violation_rate),
    POLYDAB_SERIES_INT_FIELD("sim.run.live_queries", live_queries),
    POLYDAB_SERIES_INT_FIELD("svc.service.registrations", registrations),
    POLYDAB_SERIES_INT_FIELD("svc.service.deregistrations", deregistrations),
    POLYDAB_SERIES_INT_FIELD("svc.service.modifications", modifications),
    POLYDAB_SERIES_INT_FIELD("svc.service.rejections", rejections),
    POLYDAB_SERIES_INT_FIELD("sim.fault.drops", fault_drops),
    POLYDAB_SERIES_INT_FIELD("sim.fault.retransmits", retransmits),
    POLYDAB_SERIES_INT_FIELD("sim.fault.duplicates_suppressed",
                             dups_suppressed),
    POLYDAB_SERIES_INT_FIELD("sim.fault.lease_expiries", lease_expiries),
    POLYDAB_SERIES_INT_FIELD("sim.coordinator.queue_wait_count",
                             queue_wait_count),
    POLYDAB_SERIES_DBL_FIELD("sim.coordinator.queue_wait_p50", queue_wait_p50),
    POLYDAB_SERIES_DBL_FIELD("sim.coordinator.queue_wait_p90", queue_wait_p90),
    POLYDAB_SERIES_DBL_FIELD("sim.coordinator.queue_wait_p99", queue_wait_p99),
};

#undef POLYDAB_SERIES_INT_FIELD
#undef POLYDAB_SERIES_DBL_FIELD

const MetricField* FindMetricField(const std::string& name) {
  for (const MetricField& f : kMetricFields) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

void AppendNum(std::string* out, const char* key, double v) {
  *out += ",\"";
  *out += key;
  *out += "\":";
  *out += JsonNumber(v);
}

void AppendInt(std::string* out, const char* key, int64_t v) {
  *out += ",\"";
  *out += key;
  *out += "\":";
  *out += std::to_string(v);
}

void AppendStr(std::string* out, const char* key, const std::string& v) {
  *out += ",\"";
  *out += key;
  *out += "\":\"";
  *out += JsonEscape(v);
  *out += '"';
}

/// Field accessor over one parsed line, with presence tracking so strict
/// parsers can reject unknown keys (corruption shows up as a hard error).
struct Fields {
  std::map<std::string, std::string> strings;
  std::map<std::string, double> numbers;

  bool Num(const char* key, double* out) {
    auto it = numbers.find(key);
    if (it == numbers.end()) return false;
    *out = it->second;
    numbers.erase(it);
    return true;
  }
  double NumOr(const char* key, double fallback) {
    double v = fallback;
    (void)Num(key, &v);
    return v;
  }
  bool Str(const char* key, std::string* out) {
    auto it = strings.find(key);
    if (it == strings.end()) return false;
    *out = it->second;
    strings.erase(it);
    return true;
  }
};

Status BadLine(size_t line_no, const std::string& why) {
  return Status::InvalidArgument("series line " + std::to_string(line_no) +
                                 ": " + why);
}

bool IsAlertEvent(TraceEventKind kind) {
  return kind == TraceEventKind::kAlertFire ||
         kind == TraceEventKind::kAlertResolve;
}

}  // namespace

const std::vector<std::string>& SeriesMetricNames() {
  static const std::vector<std::string>* names = [] {
    auto* v = new std::vector<std::string>;
    for (const MetricField& f : kMetricFields) v->push_back(f.name);
    return v;
  }();
  return *names;
}

double SeriesMetricValue(const SeriesWindow& w, const std::string& name) {
  const MetricField* f = FindMetricField(name);
  return f == nullptr ? 0.0 : f->get(w);
}

// ---------------------------------------------------------------------------
// Serialization

std::string SeriesToJsonLines(const SeriesFile& series) {
  std::string out;
  for (const auto& [key, value] : series.info) {
    out += "{\"type\":\"info\",\"key\":\"";
    out += JsonEscape(key);
    out += "\",\"value\":\"";
    out += JsonEscape(value);
    out += "\"}\n";
  }
  for (size_t i = 0; i < series.rules.size(); ++i) {
    const SloRule& r = series.rules[i];
    out += "{\"type\":\"slo_rule\",\"index\":";
    out += std::to_string(i);
    AppendStr(&out, "metric", r.metric);
    AppendStr(&out, "op", Name(r.op));
    AppendNum(&out, "threshold", r.threshold);
    AppendInt(&out, "windows", r.windows);
    out += "}\n";
  }
  // Windows with their breakdown / sample / alert rows grouped behind
  // them. The row vectors are index-ordered (that is how the recorder
  // appends them), so simple cursors interleave them back.
  size_t dim_i = 0, sample_i = 0, alert_i = 0;
  for (const SeriesWindow& w : series.windows) {
    out += "{\"type\":\"window\",\"index\":";
    out += std::to_string(w.index);
    AppendNum(&out, "start", w.start);
    AppendNum(&out, "end", w.end);
    for (const MetricField& f : kMetricFields) {
      const double v = f.get(w);
      if (v != 0.0) AppendNum(&out, f.name, v);
    }
    out += "}\n";
    for (; dim_i < series.dims.size() && series.dims[dim_i].index == w.index;
         ++dim_i) {
      const SeriesDimRow& d = series.dims[dim_i];
      out += "{\"type\":\"window_dim\",\"index\":";
      out += std::to_string(d.index);
      AppendStr(&out, "dim", d.dim);
      AppendInt(&out, "id", d.id);
      if (d.refreshes != 0) AppendInt(&out, "refreshes", d.refreshes);
      if (d.recomputations != 0) {
        AppendInt(&out, "recomputations", d.recomputations);
      }
      if (d.notifications != 0) AppendInt(&out, "notifications", d.notifications);
      out += "}\n";
    }
    for (; sample_i < series.samples.size() &&
           series.samples[sample_i].index == w.index;
         ++sample_i) {
      const SeriesSample& s = series.samples[sample_i];
      out += "{\"type\":\"sample\",\"index\":";
      out += std::to_string(s.index);
      AppendStr(&out, "name", s.name);
      AppendStr(&out, "kind", s.kind);
      AppendNum(&out, "value", s.value);
      out += "}\n";
    }
    for (; alert_i < series.alerts.size() &&
           series.alerts[alert_i].window == w.index;
         ++alert_i) {
      const SloAlert& a = series.alerts[alert_i];
      out += "{\"type\":\"alert\",\"index\":";
      out += std::to_string(a.window);
      AppendNum(&out, "t", a.time);
      AppendInt(&out, "rule", a.rule);
      AppendStr(&out, "state", a.fire ? "fire" : "resolve");
      AppendNum(&out, "value", a.value);
      AppendNum(&out, "threshold", a.threshold);
      AppendInt(&out, "consecutive", a.consecutive);
      if (a.cause != 0) AppendInt(&out, "cause", static_cast<int64_t>(a.cause));
      out += "}\n";
    }
  }
  if (series.has_totals) {
    const SeriesTotals& t = series.totals;
    out += "{\"type\":\"series_summary\",\"windows\":";
    out += std::to_string(t.windows);
    if (t.refreshes != 0) AppendInt(&out, "refreshes", t.refreshes);
    if (t.recomputations != 0) {
      AppendInt(&out, "recomputations", t.recomputations);
    }
    if (t.dab_changes != 0) AppendInt(&out, "dab_changes", t.dab_changes);
    if (t.notifications != 0) AppendInt(&out, "notifications", t.notifications);
    if (t.solver_failures != 0) {
      AppendInt(&out, "solver_failures", t.solver_failures);
    }
    if (t.violations != 0) AppendInt(&out, "violations", t.violations);
    if (t.samples != 0) AppendInt(&out, "samples", t.samples);
    if (t.registrations != 0) AppendInt(&out, "registrations", t.registrations);
    if (t.deregistrations != 0) {
      AppendInt(&out, "deregistrations", t.deregistrations);
    }
    if (t.modifications != 0) AppendInt(&out, "modifications", t.modifications);
    if (t.rejections != 0) AppendInt(&out, "rejections", t.rejections);
    if (t.fault_drops != 0) AppendInt(&out, "fault_drops", t.fault_drops);
    if (t.retransmits != 0) AppendInt(&out, "retransmits", t.retransmits);
    if (t.dups_suppressed != 0) {
      AppendInt(&out, "dups_suppressed", t.dups_suppressed);
    }
    if (t.lease_expiries != 0) {
      AppendInt(&out, "lease_expiries", t.lease_expiries);
    }
    if (t.queue_wait_count != 0) {
      AppendInt(&out, "queue_wait_count", t.queue_wait_count);
    }
    if (t.alerts_fired != 0) AppendInt(&out, "alerts_fired", t.alerts_fired);
    if (t.alerts_resolved != 0) {
      AppendInt(&out, "alerts_resolved", t.alerts_resolved);
    }
    out += "}\n";
  }
  return out;
}

Result<SeriesFile> ParseSeriesJsonLines(const std::string& text) {
  SeriesFile series;
  size_t pos = 0;
  size_t line_no = 0;
  while (pos < text.size()) {
    const size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      return Status::InvalidArgument(
          "series line " + std::to_string(line_no + 1) +
          ": unterminated final line (truncated file?)");
    }
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++line_no;
    if (line.empty()) continue;

    Fields f;
    POLYDAB_RETURN_NOT_OK(ParseFlatJsonLine(line, &f.strings, &f.numbers));
    std::string type;
    if (!f.Str("type", &type)) return BadLine(line_no, "missing \"type\"");

    if (type == "info") {
      std::string key, value;
      if (!f.Str("key", &key) || !f.Str("value", &value)) {
        return BadLine(line_no, "info needs key and value");
      }
      series.info[key] = value;
    } else if (type == "slo_rule") {
      SloRule r;
      std::string op;
      double index = 0.0, windows = 1.0, threshold = 0.0;
      if (!f.Num("index", &index) || !f.Str("metric", &r.metric) ||
          !f.Str("op", &op) || !f.Num("threshold", &threshold) ||
          !f.Num("windows", &windows)) {
        return BadLine(line_no, "incomplete slo_rule record");
      }
      r.threshold = threshold;
      r.windows = static_cast<int64_t>(windows);
      if (op == ">") r.op = SloOp::kGt;
      else if (op == "<") r.op = SloOp::kLt;
      else if (op == ">=") r.op = SloOp::kGe;
      else if (op == "<=") r.op = SloOp::kLe;
      else return BadLine(line_no, "unknown slo_rule op \"" + op + "\"");
      if (static_cast<size_t>(index) != series.rules.size()) {
        return BadLine(line_no, "slo_rule records out of order");
      }
      if (r.windows < 1) return BadLine(line_no, "slo_rule windows < 1");
      series.rules.push_back(std::move(r));
    } else if (type == "window") {
      SeriesWindow w;
      double index = 0.0;
      if (!f.Num("index", &index) || !f.Num("start", &w.start) ||
          !f.Num("end", &w.end)) {
        return BadLine(line_no, "window needs index, start and end");
      }
      w.index = static_cast<int64_t>(index);
      for (auto& [key, value] : f.numbers) {
        const MetricField* field = FindMetricField(key);
        if (field == nullptr) {
          return BadLine(line_no, "unknown window metric \"" + key + "\"");
        }
        field->set(&w, value);
      }
      if (!f.strings.empty()) {
        return BadLine(line_no, "unexpected string field \"" +
                                    f.strings.begin()->first + "\"");
      }
      series.windows.push_back(w);
    } else if (type == "window_dim") {
      SeriesDimRow d;
      double index = 0.0;
      if (!f.Num("index", &index) || !f.Str("dim", &d.dim)) {
        return BadLine(line_no, "window_dim needs index and dim");
      }
      if (d.dim != "lane" && d.dim != "query" && d.dim != "source") {
        return BadLine(line_no, "unknown dim \"" + d.dim + "\"");
      }
      d.index = static_cast<int64_t>(index);
      d.id = static_cast<int32_t>(f.NumOr("id", -1.0));
      d.refreshes = static_cast<int64_t>(f.NumOr("refreshes", 0.0));
      d.recomputations = static_cast<int64_t>(f.NumOr("recomputations", 0.0));
      d.notifications = static_cast<int64_t>(f.NumOr("notifications", 0.0));
      series.dims.push_back(std::move(d));
    } else if (type == "sample") {
      SeriesSample s;
      double index = 0.0;
      if (!f.Num("index", &index) || !f.Str("name", &s.name) ||
          !f.Str("kind", &s.kind) || !f.Num("value", &s.value)) {
        return BadLine(line_no, "incomplete sample record");
      }
      if (s.kind != "counter" && s.kind != "gauge" && s.kind != "histogram") {
        return BadLine(line_no, "unknown sample kind \"" + s.kind + "\"");
      }
      s.index = static_cast<int64_t>(index);
      series.samples.push_back(std::move(s));
    } else if (type == "alert") {
      SloAlert a;
      double index = 0.0, rule = 0.0;
      std::string state;
      if (!f.Num("index", &index) || !f.Num("t", &a.time) ||
          !f.Num("rule", &rule) || !f.Str("state", &state) ||
          !f.Num("value", &a.value) || !f.Num("threshold", &a.threshold)) {
        return BadLine(line_no, "incomplete alert record");
      }
      if (state != "fire" && state != "resolve") {
        return BadLine(line_no, "unknown alert state \"" + state + "\"");
      }
      a.window = static_cast<int64_t>(index);
      a.rule = static_cast<int32_t>(rule);
      a.fire = state == "fire";
      a.consecutive = static_cast<int64_t>(f.NumOr("consecutive", 0.0));
      a.cause = static_cast<uint64_t>(f.NumOr("cause", 0.0));
      series.alerts.push_back(a);
    } else if (type == "series_summary") {
      if (series.has_totals) {
        return BadLine(line_no, "duplicate series_summary record");
      }
      SeriesTotals& t = series.totals;
      double windows = 0.0;
      if (!f.Num("windows", &windows)) {
        return BadLine(line_no, "series_summary needs windows");
      }
      t.windows = static_cast<int64_t>(windows);
      t.refreshes = static_cast<int64_t>(f.NumOr("refreshes", 0.0));
      t.recomputations = static_cast<int64_t>(f.NumOr("recomputations", 0.0));
      t.dab_changes = static_cast<int64_t>(f.NumOr("dab_changes", 0.0));
      t.notifications = static_cast<int64_t>(f.NumOr("notifications", 0.0));
      t.solver_failures =
          static_cast<int64_t>(f.NumOr("solver_failures", 0.0));
      t.violations = static_cast<int64_t>(f.NumOr("violations", 0.0));
      t.samples = static_cast<int64_t>(f.NumOr("samples", 0.0));
      t.registrations = static_cast<int64_t>(f.NumOr("registrations", 0.0));
      t.deregistrations =
          static_cast<int64_t>(f.NumOr("deregistrations", 0.0));
      t.modifications = static_cast<int64_t>(f.NumOr("modifications", 0.0));
      t.rejections = static_cast<int64_t>(f.NumOr("rejections", 0.0));
      t.fault_drops = static_cast<int64_t>(f.NumOr("fault_drops", 0.0));
      t.retransmits = static_cast<int64_t>(f.NumOr("retransmits", 0.0));
      t.dups_suppressed =
          static_cast<int64_t>(f.NumOr("dups_suppressed", 0.0));
      t.lease_expiries = static_cast<int64_t>(f.NumOr("lease_expiries", 0.0));
      t.queue_wait_count =
          static_cast<int64_t>(f.NumOr("queue_wait_count", 0.0));
      t.alerts_fired = static_cast<int64_t>(f.NumOr("alerts_fired", 0.0));
      t.alerts_resolved =
          static_cast<int64_t>(f.NumOr("alerts_resolved", 0.0));
      series.has_totals = true;
    } else {
      return BadLine(line_no, "unknown record type \"" + type + "\"");
    }
  }
  return series;
}

Status SaveSeriesFile(const SeriesFile& series, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open series file for writing: " +
                                   path);
  }
  const std::string text = SeriesToJsonLines(series);
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int close_err = std::fclose(f);
  if (written != text.size() || close_err != 0) {
    return Status::Internal("short write to series file: " + path);
  }
  return Status::OK();
}

Result<SeriesFile> LoadSeriesFile(const std::string& path) {
  std::string text;
  Status read = ReadFileToString(path, &text);
  if (read.code() == StatusCode::kInvalidArgument) {
    return Status::InvalidArgument("cannot open series file: " + path);
  }
  POLYDAB_RETURN_NOT_OK(read);
  return ParseSeriesJsonLines(text);
}

// ---------------------------------------------------------------------------
// SeriesRecorder

/// The per-window message-count accumulator, behind a box so timeseries.h
/// need not include trace_check.h.
struct SeriesRecorder::DerivedBox {
  TraceDerivedStats stats;
};

SeriesRecorder::SeriesRecorder(SeriesConfig config)
    : config_(std::move(config)),
      engine_(config_.rules),
      derived_(std::make_unique<DerivedBox>()),
      queue_wait_(std::make_unique<Histogram>()) {
  POLYDAB_CHECK(config_.window_ticks >= 1);
  POLYDAB_CHECK(config_.fidelity_stride >= 1);
  file_.rules = config_.rules;
  if (config_.derive_samples) {
    next_sample_ = static_cast<double>(config_.fidelity_stride);
  }
}

SeriesRecorder::~SeriesRecorder() = default;

void SeriesRecorder::SetInitialQueries(int64_t n) { live_ = n; }

void SeriesRecorder::OnEvent(const TraceEvent& e) {
  if (IsAlertEvent(e.kind) || finalized_) return;
  if (config_.derive_samples) AdvanceReplayTo(e.time);
  ApplyEvent(e);
  last_event_id_ = e.id;
}

void SeriesRecorder::ApplyEvent(const TraceEvent& e) {
  AccumulateDerivedStats(e, &derived_->stats);
  switch (e.kind) {
    case TraceEventKind::kRefreshArrived:
      queue_wait_->Record(e.b);
      break;
    case TraceEventKind::kFidelityViolation:
      ++cur_violations_;
      break;
    case TraceEventKind::kQueryRegister:
      ++cur_registrations_;
      ++live_;
      break;
    case TraceEventKind::kQueryDeregister:
      ++cur_deregistrations_;
      --live_;
      break;
    case TraceEventKind::kQueryModify:
      ++cur_modifications_;
      break;
    case TraceEventKind::kAdmissionReject:
      ++cur_rejections_;
      break;
    default:
      break;
  }
  if (!config_.breakdown) return;
  switch (e.kind) {
    case TraceEventKind::kRefreshArrived:
      if (e.shard >= 0) ++cur_dims_[{0, e.shard}].refreshes;
      if (e.source >= 0) ++cur_dims_[{2, e.source}].refreshes;
      break;
    case TraceEventKind::kRecomputeStart:
      if (e.shard >= 0) ++cur_dims_[{0, e.shard}].recomputations;
      if (e.query >= 0) ++cur_dims_[{1, e.query}].recomputations;
      break;
    case TraceEventKind::kUserNotification:
      if (e.shard >= 0) ++cur_dims_[{0, e.shard}].notifications;
      if (e.query >= 0) ++cur_dims_[{1, e.query}].notifications;
      break;
    default:
      break;
  }
}

void SeriesRecorder::AddFidelitySamples(int64_t live) {
  POLYDAB_CHECK(!config_.derive_samples);
  cur_samples_ += live;
}

void SeriesRecorder::TakeSample() {
  cur_samples_ += live_;
  next_sample_ += static_cast<double>(config_.fidelity_stride);
}

void SeriesRecorder::AdvanceReplayTo(double t) {
  const double width = static_cast<double>(config_.window_ticks);
  while (true) {
    const double boundary = window_start_ + width;
    // A grid point on the boundary belongs to the closing window; a grid
    // point equal to the incoming event's time is taken *after* that
    // event (the simulator applies same-tick churn before it samples).
    if (next_sample_ < t && next_sample_ <= boundary) {
      TakeSample();
      continue;
    }
    if (boundary < t) {
      CloseWindow(boundary);
      continue;
    }
    break;
  }
}

void SeriesRecorder::OnTickEnd(double now) {
  POLYDAB_CHECK(!config_.derive_samples);
  const double width = static_cast<double>(config_.window_ticks);
  while (!finalized_ && now >= window_start_ + width) {
    CloseWindow(window_start_ + width);
  }
}

void SeriesRecorder::Finalize(double end_time) {
  if (finalized_) return;
  const double width = static_cast<double>(config_.window_ticks);
  if (config_.derive_samples) {
    while (true) {
      const double boundary = window_start_ + width;
      if (next_sample_ <= end_time && next_sample_ <= boundary) {
        TakeSample();
        continue;
      }
      if (boundary <= end_time) {
        CloseWindow(boundary);
        continue;
      }
      break;
    }
  } else {
    while (end_time >= window_start_ + width) {
      CloseWindow(window_start_ + width);
    }
  }
  if (end_time > window_start_) CloseWindow(end_time);  // trailing partial
  file_.has_totals = true;
  finalized_ = true;
}

void SeriesRecorder::CloseWindow(double end) {
  SeriesWindow w;
  w.index = next_index_;
  w.start = window_start_;
  w.end = end;
  const TraceDerivedStats& d = derived_->stats;
  w.refreshes = d.refreshes;
  w.recomputations = d.recomputations;
  w.dab_changes = d.dab_change_messages;
  w.notifications = d.user_notifications;
  w.solver_failures = d.solver_failures;
  w.fault_drops = d.fault_drops;
  w.retransmits = d.retransmits;
  w.dups_suppressed = d.duplicates_suppressed;
  w.lease_expiries = d.lease_expiries;
  w.violations = cur_violations_;
  w.samples = cur_samples_;
  w.violation_rate = static_cast<double>(w.violations) /
                     static_cast<double>(std::max<int64_t>(1, w.samples));
  w.live_queries = live_;
  w.registrations = cur_registrations_;
  w.deregistrations = cur_deregistrations_;
  w.modifications = cur_modifications_;
  w.rejections = cur_rejections_;
  w.queue_wait_count = queue_wait_->count();
  if (w.queue_wait_count > 0) {
    w.queue_wait_p50 = queue_wait_->Quantile(0.5);
    w.queue_wait_p90 = queue_wait_->Quantile(0.9);
    w.queue_wait_p99 = queue_wait_->Quantile(0.99);
  }
  file_.windows.push_back(w);

  static const char* const kDimNames[] = {"lane", "query", "source"};
  for (const auto& [key, counts] : cur_dims_) {
    SeriesDimRow row;
    row.index = w.index;
    row.dim = kDimNames[key.first];
    row.id = key.second;
    row.refreshes = counts.refreshes;
    row.recomputations = counts.recomputations;
    row.notifications = counts.notifications;
    file_.dims.push_back(std::move(row));
  }

  if (config_.registry != nullptr) {
    for (const MetricRegistry::Entry& entry : config_.registry->Entries()) {
      SeriesSample s;
      s.index = w.index;
      s.name = entry.name;
      switch (entry.kind) {
        case InstrumentKind::kCounter: {
          const int64_t value = entry.counter->value();
          const int64_t delta = value - prev_counter_[entry.name];
          prev_counter_[entry.name] = value;
          if (delta == 0) continue;
          s.kind = "counter";
          s.value = static_cast<double>(delta);
          break;
        }
        case InstrumentKind::kGauge: {
          const double value = entry.gauge->value();
          auto it = prev_gauge_.find(entry.name);
          const double prev = it == prev_gauge_.end() ? 0.0 : it->second;
          if (value == prev) continue;
          prev_gauge_[entry.name] = value;
          s.kind = "gauge";
          s.value = value;
          break;
        }
        case InstrumentKind::kHistogram: {
          // Count delta only: histogram sums are wall-clock measurements
          // and would make the series file nondeterministic.
          const int64_t count = entry.histogram->count();
          const int64_t delta = count - prev_hist_count_[entry.name];
          prev_hist_count_[entry.name] = count;
          if (delta == 0) continue;
          s.kind = "histogram";
          s.value = static_cast<double>(delta);
          break;
        }
      }
      file_.samples.push_back(std::move(s));
    }
  }

  SeriesTotals& t = file_.totals;
  ++t.windows;
  t.refreshes += w.refreshes;
  t.recomputations += w.recomputations;
  t.dab_changes += w.dab_changes;
  t.notifications += w.notifications;
  t.solver_failures += w.solver_failures;
  t.violations += w.violations;
  t.samples += w.samples;
  t.registrations += w.registrations;
  t.deregistrations += w.deregistrations;
  t.modifications += w.modifications;
  t.rejections += w.rejections;
  t.fault_drops += w.fault_drops;
  t.retransmits += w.retransmits;
  t.dups_suppressed += w.dups_suppressed;
  t.lease_expiries += w.lease_expiries;
  t.queue_wait_count += w.queue_wait_count;

  if (!engine_.rules().empty()) {
    std::vector<double> values;
    values.reserve(engine_.rules().size());
    for (const SloRule& rule : engine_.rules()) {
      values.push_back(SeriesMetricValue(w, rule.metric));
    }
    std::vector<SloAlert> alerts;
    engine_.OnWindowClose(w.index, end, values, last_event_id_, &alerts);
    for (const SloAlert& alert : alerts) {
      file_.alerts.push_back(alert);
      if (alert.fire) ++t.alerts_fired;
      else ++t.alerts_resolved;
      if (alert_sink_ != nullptr) {
        TraceEvent e;
        e.time = end;
        e.kind = alert.fire ? TraceEventKind::kAlertFire
                            : TraceEventKind::kAlertResolve;
        e.flag = alert.rule;
        e.a = alert.value;
        e.b = alert.threshold;
        e.c = static_cast<double>(alert.consecutive);
        e.cause = alert.cause;
        alert_sink_->Emit(e);
      }
    }
  }

  derived_->stats = TraceDerivedStats{};
  cur_violations_ = 0;
  cur_samples_ = 0;
  cur_registrations_ = 0;
  cur_deregistrations_ = 0;
  cur_modifications_ = 0;
  cur_rejections_ = 0;
  queue_wait_ = std::make_unique<Histogram>();
  cur_dims_.clear();
  window_start_ = end;
  ++next_index_;
}

Result<SeriesFile> FoldTraceSeries(const TraceFile& trace) {
  const auto wit = trace.info.find("series_window_s");
  if (wit == trace.info.end()) {
    return Status::InvalidArgument(
        "trace carries no series_window_s info key (not recorded with "
        "series-out)");
  }
  char* end = nullptr;
  const long window = std::strtol(wit->second.c_str(), &end, 10);
  if (end == wit->second.c_str() || *end != '\0' || window < 1) {
    return Status::InvalidArgument("series_window_s info \"" + wit->second +
                                   "\" is not a positive integer");
  }
  if (trace.summaries.size() != 1) {
    return Status::InvalidArgument(
        "series traces must carry exactly one run summary, found " +
        std::to_string(trace.summaries.size()));
  }
  const TraceRunSummary& s = trace.summaries[0];

  SeriesConfig cfg;
  cfg.window_ticks = window;
  cfg.breakdown = trace.info.find("series_breakdown") != trace.info.end();
  cfg.derive_samples = true;
  cfg.fidelity_stride = s.fidelity_stride >= 1 ? s.fidelity_stride : 1;
  const auto rit = trace.info.find("slo_rules");
  if (rit != trace.info.end()) {
    Result<std::vector<SloRule>> parsed =
        ParseSloRules(rit->second, SeriesMetricNames());
    if (!parsed.ok()) return parsed.status();
    cfg.rules = std::move(parsed).value();
  }
  SeriesRecorder replay(cfg);
  // Live queries at t=0: every query_info record that was not registered
  // by a churn event.
  int64_t initial = static_cast<int64_t>(trace.queries.size());
  for (const TraceEvent& e : trace.events) {
    if (e.kind == TraceEventKind::kQueryRegister) --initial;
  }
  replay.SetInitialQueries(initial);
  for (const TraceEvent& e : trace.events) replay.OnEvent(e);
  replay.Finalize(static_cast<double>(s.ticks - 1));
  return replay.file();
}

}  // namespace polydab::obs
