#include "recovery/checkpoint.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/file_util.h"
#include "common/hash.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "recovery/codec.h"
#include "recovery/wal.h"

// The checkpoint and WAL formats (checkpoint.h, wal.h) share one record
// codec, so both are implemented here.

namespace polydab::recovery {

namespace {

// ---------------------------------------------------------------------
// The record codec both durable formats share. A record type lists its
// fields once (the field-list protocol in checkpoint.h); Render spells
// them as one flat JSON line in the json_util dialect, FieldDecoder
// strictly parses them back, and both loaders share the line splitter
// and the line-numbered diagnostics.

using Buckets = std::vector<std::pair<int, int64_t>>;

// The spelling of one field value, by type: the only place a field
// type's on-disk form is defined. Numbers are bare JSON numbers; every
// other type is packed into one JSON string.
template <class T>
  requires std::is_integral_v<T>
std::string FieldText(T v) {
  return std::to_string(v);
}
std::string FieldText(char v) { return std::string(1, v); }
std::string FieldText(double v) { return obs::JsonNumber(v); }
std::string FieldText(const std::string& v) { return v; }
std::string FieldText(const std::vector<int>& v) { return EncodeInts(v); }
std::string FieldText(const Vector& v) { return EncodeVector(v); }
std::string FieldText(const Buckets& b) {
  std::string out;
  for (size_t i = 0; i < b.size(); ++i) {
    if (i > 0) out += ' ';
    out += std::to_string(b[i].first) + ':' + std::to_string(b[i].second);
  }
  return out;
}

template <class T>
constexpr bool kQuoted = !std::is_arithmetic_v<T> || std::is_same_v<T, char>;

/// Field-list visitor that spells every field of one record, in key
/// order. Feeds both the line writers and DiffCheckpoints, so a
/// snapshot's diff is exactly a diff of its serialization.
struct Render {
  struct Field {
    const char* key;
    std::string text;
    bool quoted;
  };
  std::vector<Field> fields;

  template <class T>
  void operator()(const char* key, const T& v) {
    fields.push_back({key, FieldText(v), kQuoted<T>});
  }
  void operator()(const char* key, double v, TokenTag) {
    fields.push_back({key, EncodeDouble(v), true});
  }
  template <class R>
  void Count(const char* key, const std::vector<R>& records, const char*) {
    fields.push_back({key, std::to_string(records.size()), false});
  }
};

// Walks over the field lists.
constexpr auto kRecordFields = [](auto& s, auto& v) {
  std::remove_cvref_t<decltype(s)>::Fields(s, v);
};
constexpr auto kHeader = [](auto& s, auto& v) {
  CheckpointState::HeaderFields(s, v);
};
constexpr auto kMetrics = [](auto& s, auto& v) {
  CheckpointState::MetricFields(s, v);
};
constexpr auto kItems = [](auto& s, auto& v) {
  CheckpointState::ItemFields(s, v);
};

template <class T, class Walk>
Render RenderFields(const T& obj, Walk walk) {
  Render r;
  walk(obj, r);
  return r;
}

/// Flat JSON line assembler, matching what ParseFlatJsonLine reads back.
/// The first key is the record's tag ("t" in checkpoints, "w" in WALs).
class LineBuilder {
 public:
  LineBuilder(const char* tag_key, const std::string& tag) {
    line_ = std::string("{\"") + tag_key + "\":\"" + obs::JsonEscape(tag) +
            '"';
  }
  LineBuilder& Add(const char* key, const std::string& text, bool quoted) {
    line_ += std::string(",\"") + key + "\":";
    line_ += quoted ? '"' + obs::JsonEscape(text) + '"' : text;
    return *this;
  }
  /// Append \p r's fields and close the line (no trailing newline).
  std::string Done(const Render& r) {
    for (const Render::Field& f : r.fields) Add(f.key, f.text, f.quoted);
    return line_ + "}";
  }

 private:
  std::string line_;
};

/// One parsed record line, kept with its raw bytes for digest chaining.
struct ParsedRecord {
  const char* format = "";   ///< "ckpt" / "wal", for diagnostics
  const char* tag_key = "";  ///< "t" / "w"
  int64_t line_number = 0;
  std::string raw;
  std::string tag;
  std::map<std::string, std::string> strings;
  std::map<std::string, double> numbers;
};

Status LineError(int64_t line_number, const std::string& msg) {
  return Status::InvalidArgument("line " + std::to_string(line_number) +
                                 ": " + msg);
}

/// Split \p text into record lines and syntax-parse each: blank lines
/// are skipped, an unterminated final line is a truncation error, and
/// every record must carry its tag under \p tag_key (\p tag_name names
/// it in the diagnostic).
Status ParseRecordLines(const std::string& text, const char* format,
                        const char* tag_key, const char* tag_name,
                        std::vector<ParsedRecord>* out) {
  size_t start = 0;
  int64_t line_number = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    const bool terminated = end != std::string::npos;
    if (!terminated) end = text.size();
    std::string line = text.substr(start, end - start);
    start = end + 1;
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (!terminated) {
      return LineError(line_number,
                       "truncated record at end of file (no trailing "
                       "newline; partial write?)");
    }
    ParsedRecord rec;
    rec.format = format;
    rec.tag_key = tag_key;
    rec.line_number = line_number;
    Status parsed = obs::ParseFlatJsonLine(line, &rec.strings, &rec.numbers);
    if (!parsed.ok()) return LineError(line_number, parsed.message());
    auto tit = rec.strings.find(tag_key);
    if (tit == rec.strings.end()) {
      return LineError(line_number, std::string(format) + " record has no '" +
                                        tag_key + "' " + tag_name + " tag");
    }
    rec.tag = tit->second;
    rec.raw = std::move(line);
    out->push_back(std::move(rec));
  }
  return Status::OK();
}

/// "<format> '<tag>' record <what>", line-numbered.
Status RecordError(const ParsedRecord& rec, const std::string& what) {
  return LineError(rec.line_number, std::string(rec.format) + " '" +
                                        rec.tag + "' record " + what);
}

Status UnknownKey(const ParsedRecord& rec, const std::string& key) {
  return LineError(rec.line_number, "unknown key '" + key + "' in " +
                                        rec.format + " '" + rec.tag +
                                        "' record");
}

/// Reject any key outside \p allowed (for the hand-written records).
Status CheckKeys(const ParsedRecord& rec,
                 const std::set<std::string>& allowed) {
  for (const auto& [k, v] : rec.strings) {
    if (allowed.count(k) == 0) return UnknownKey(rec, k);
  }
  for (const auto& [k, v] : rec.numbers) {
    if (allowed.count(k) == 0) return UnknownKey(rec, k);
  }
  return Status::OK();
}

/// The value under \p key in \p values, the line's strings or numbers.
template <class T>
Status Get(const ParsedRecord& rec, const std::map<std::string, T>& values,
           const std::string& key, T* out) {
  auto it = values.find(key);
  if (it == values.end()) {
    return RecordError(rec, "missing key '" + key + "'");
  }
  *out = it->second;
  return Status::OK();
}

Status DecodeBuckets(const std::string& s, Buckets* out) {
  out->clear();
  std::istringstream in(s);
  std::string tok;
  while (in >> tok) {
    const size_t colon = tok.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("bad bucket token '" + tok + "'");
    }
    long long index = 0, n = 0;
    POLYDAB_RETURN_NOT_OK(DecodeLong(tok.substr(0, colon), &index));
    POLYDAB_RETURN_NOT_OK(DecodeLong(tok.substr(colon + 1), &n));
    if (index < 0 || index >= obs::Histogram::kNumBuckets) {
      return Status::InvalidArgument(
          "histogram bucket index " + std::to_string(index) +
          " out of range [0, " + std::to_string(obs::Histogram::kNumBuckets) +
          ")");
    }
    out->emplace_back(static_cast<int>(index), static_cast<int64_t>(n));
  }
  return Status::OK();
}

// Strict decoding of one field value, by type: the inverse of FieldText.

/// Every integer field (bool included) decodes here. [min, 2^digits) is
/// exactly T's range and both bounds are exact doubles, so the cast
/// below is always defined.
template <class T>
  requires std::is_integral_v<T>
Status DecodeField(const ParsedRecord& rec, const char* key, T* out) {
  double v = 0.0;
  POLYDAB_RETURN_NOT_OK(Get(rec, rec.numbers, key, &v));
  const double lo = static_cast<double>(std::numeric_limits<T>::min());
  const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(v >= lo && v < hi && v == std::trunc(v))) {
    return RecordError(rec, std::string("key '") + key +
                                "' is not an integer in range");
  }
  *out = static_cast<T>(v);
  return Status::OK();
}
Status DecodeField(const ParsedRecord& rec, const char* key, char* out) {
  std::string s;
  POLYDAB_RETURN_NOT_OK(Get(rec, rec.strings, key, &s));
  if (s.size() != 1) {
    return RecordError(rec, std::string("key '") + key +
                                "' is not one character");
  }
  *out = s[0];
  return Status::OK();
}
Status DecodeField(const ParsedRecord& rec, const char* key, double* out) {
  return Get(rec, rec.numbers, key, out);
}
Status DecodeField(const ParsedRecord& rec, const char* key,
                   std::string* out) {
  return Get(rec, rec.strings, key, out);
}
/// A string field of codec tokens (vectors, buckets, or one ±inf-capable
/// double), decoded by the matching codec.h / bucket decoder.
template <class T>
Status DecodeField(const ParsedRecord& rec, const char* key, T* out,
                   Status (*decode)(const std::string&, T*)) {
  std::string s;
  POLYDAB_RETURN_NOT_OK(Get(rec, rec.strings, key, &s));
  Status ds = decode(s, out);
  if (!ds.ok()) return LineError(rec.line_number, ds.message());
  return Status::OK();
}
Status DecodeField(const ParsedRecord& rec, const char* key,
                   std::vector<int>* out) {
  return DecodeField(rec, key, out, DecodeInts);
}
Status DecodeField(const ParsedRecord& rec, const char* key, Vector* out) {
  return DecodeField(rec, key, out, DecodeVector);
}
Status DecodeField(const ParsedRecord& rec, const char* key, Buckets* out) {
  return DecodeField(rec, key, out, DecodeBuckets);
}

/// Field-list visitor that fills one record from its parsed line. Stops
/// at the first bad field; Finish then also rejects any key of the line
/// that no field claimed.
class FieldDecoder {
 public:
  explicit FieldDecoder(const ParsedRecord& rec) : rec_(rec) {}

  template <class T>
  void operator()(const char* key, T& field) {
    Visit(key, [&] { return DecodeField(rec_, key, &field); });
  }
  void operator()(const char* key, double& field, TokenTag) {
    Visit(key, [&] { return DecodeField(rec_, key, &field, DecodeDouble); });
  }
  template <class R>
  void Count(const char* key, std::vector<R>&, const char*) {
    Visit(key, [&] { return DecodeField(rec_, key, &counts_.emplace_back()); });
  }

  /// The first field error, else the first key outside the tag, the
  /// walked fields and \p extra.
  Status Finish(std::initializer_list<const char*> extra = {}) const {
    POLYDAB_RETURN_NOT_OK(status_);
    auto claimed = [&](const std::string& k) {
      if (k == rec_.tag_key) return true;
      for (const char* e : extra) {
        if (k == e) return true;
      }
      for (const char* s : seen_) {
        if (k == s) return true;
      }
      return false;
    };
    for (const auto& [k, v] : rec_.strings) {
      if (!claimed(k)) return UnknownKey(rec_, k);
    }
    for (const auto& [k, v] : rec_.numbers) {
      if (!claimed(k)) return UnknownKey(rec_, k);
    }
    return Status::OK();
  }
  /// The declared record counts, in field-list order.
  const std::vector<size_t>& counts() const { return counts_; }

 private:
  template <class F>
  void Visit(const char* key, F decode) {
    if (!status_.ok()) return;
    seen_.push_back(key);
    status_ = decode();
  }

  const ParsedRecord& rec_;
  Status status_;
  std::vector<const char*> seen_;
  std::vector<size_t> counts_;
};

template <class T, class Walk>
Status DecodeRecord(const ParsedRecord& rec, T* obj, Walk walk,
                    std::initializer_list<const char*> extra = {}) {
  FieldDecoder d(rec);
  walk(*obj, d);
  return d.Finish(extra);
}

// ---------------------------------------------------------------------
// Checkpoint blocks.

constexpr char kCkptVersion[] = "polydab.ckpt.v1";

/// Field-list visitor checking the header's declared record counts
/// against the records the block actually held.
struct CountCheck {
  const std::vector<size_t>& declared;
  size_t next = 0;
  Status status = Status::OK();

  template <class... A>
  void operator()(const char*, A&&...) {}
  template <class R>
  void Count(const char*, const std::vector<R>& records, const char* noun) {
    const size_t want = declared[next++];
    if (status.ok() && want != records.size()) {
      status = Status::InvalidArgument(
          "checkpoint block is internally inconsistent: header says " +
          std::to_string(want) + " " + noun + " records, block has " +
          std::to_string(records.size()));
    }
  }
};

/// Serialize one snapshot into its block lines (footer excluded).
std::vector<std::string> BuildBlockLines(const CheckpointState& st) {
  std::vector<std::string> lines;
  lines.reserve(8 + st.queries.size() + st.parts.size() + st.events.size() +
                st.instruments.size());
  lines.push_back(LineBuilder("t", "hdr")
                      .Add("v", kCkptVersion, true)
                      .Done(RenderFields(st, kHeader)));
  lines.push_back(LineBuilder("t", "met").Done(RenderFields(st, kMetrics)));
  for (size_t i = 0; i < st.queries.size(); ++i) {
    lines.push_back(LineBuilder("t", "q")
                        .Add("slot", std::to_string(i), false)
                        .Done(RenderFields(st.queries[i], kRecordFields)));
  }
  for (const CheckpointPart& p : st.parts) {
    lines.push_back(
        LineBuilder("t", "part").Done(RenderFields(p, kRecordFields)));
  }
  lines.push_back(LineBuilder("t", "items").Done(RenderFields(st, kItems)));
  for (size_t i = 0; i < st.item_queries.size(); ++i) {
    const bool has_q = !st.item_queries[i].empty();
    const bool has_s = i < st.item_shards.size() && !st.item_shards[i].empty();
    if (!has_q && !has_s) continue;
    LineBuilder b("t", "iq");
    b.Add("i", std::to_string(i), false);
    if (has_q) b.Add("q", EncodeInts(st.item_queries[i]), true);
    if (has_s) b.Add("s", EncodeInts(st.item_shards[i]), true);
    lines.push_back(b.Done(Render{}));
  }
  auto add_records = [&](const char* tag, const auto& records) {
    for (const auto& r : records) {
      lines.push_back(
          LineBuilder("t", tag).Done(RenderFields(r, kRecordFields)));
    }
  };
  add_records("ev", st.events);
  add_records("src", st.sources);
  add_records("if", st.item_fault);
  add_records("reg", st.instruments);
  return lines;
}

uint32_t BlockDigest(const std::vector<std::string>& lines) {
  uint32_t h = kFnv1a32Seed;
  for (const std::string& line : lines) {
    h = Fnv1a32(line.data(), line.size(), h);
    h = Fnv1a32("\n", 1, h);
  }
  return h;
}

/// Decode one appended record of a record vector.
template <class T>
Status DecodeAppend(const ParsedRecord& rec, std::vector<T>* out) {
  return DecodeRecord(rec, &out->emplace_back(), kRecordFields);
}

/// Strict field decode of a digest-verified block; recs[0] is its header.
Status DecodeBlock(const std::vector<const ParsedRecord*>& recs,
                   CheckpointState* st) {
  *st = CheckpointState();
  std::vector<size_t> declared;
  std::vector<const ParsedRecord*> iq;
  for (const ParsedRecord* rp : recs) {
    const ParsedRecord& rec = *rp;
    if (rec.tag == "hdr") {
      std::string version;
      POLYDAB_RETURN_NOT_OK(Get(rec, rec.strings, "v", &version));
      if (version != kCkptVersion) {
        return LineError(rec.line_number,
                         "checkpoint version skew: file says '" + version +
                             "', this build reads '" + kCkptVersion + "'");
      }
      FieldDecoder d(rec);
      CheckpointState::HeaderFields(*st, d);
      POLYDAB_RETURN_NOT_OK(d.Finish({"v"}));
      declared = d.counts();
    } else if (rec.tag == "met") {
      POLYDAB_RETURN_NOT_OK(DecodeRecord(rec, st, kMetrics));
    } else if (rec.tag == "q") {
      size_t slot = 0;
      POLYDAB_RETURN_NOT_OK(DecodeField(rec, "slot", &slot));
      if (slot != st->queries.size()) {
        return LineError(rec.line_number,
                         "ckpt 'q' records out of slot order");
      }
      POLYDAB_RETURN_NOT_OK(DecodeRecord(rec, &st->queries.emplace_back(),
                                         kRecordFields, {"slot"}));
    } else if (rec.tag == "part") {
      POLYDAB_RETURN_NOT_OK(DecodeAppend(rec, &st->parts));
    } else if (rec.tag == "items") {
      POLYDAB_RETURN_NOT_OK(DecodeRecord(rec, st, kItems));
    } else if (rec.tag == "iq") {
      iq.push_back(&rec);  // decoded once the item count is known good
    } else if (rec.tag == "ev") {
      POLYDAB_RETURN_NOT_OK(DecodeAppend(rec, &st->events));
    } else if (rec.tag == "src") {
      POLYDAB_RETURN_NOT_OK(DecodeAppend(rec, &st->sources));
    } else if (rec.tag == "if") {
      POLYDAB_RETURN_NOT_OK(DecodeAppend(rec, &st->item_fault));
    } else if (rec.tag == "reg") {
      CheckpointInstrument& ins = st->instruments.emplace_back();
      const Status decoded = DecodeRecord(rec, &ins, kRecordFields);
      // The kind selects the remaining keys, so name a bad kind before
      // any key it left unclaimed.
      if (ins.kind != 'c' && ins.kind != 'g' && ins.kind != 'h') {
        return LineError(rec.line_number, "unknown instrument kind '" +
                                              std::string(1, ins.kind) + "'");
      }
      POLYDAB_RETURN_NOT_OK(decoded);
    } else {
      return LineError(rec.line_number,
                       "unknown ckpt record type '" + rec.tag + "'");
    }
  }
  CountCheck check{declared};
  CheckpointState::HeaderFields(*st, check);
  POLYDAB_RETURN_NOT_OK(check.status);
  const size_t n_items = st->view.size();
  if (st->num_items < 0 || static_cast<size_t>(st->num_items) != n_items) {
    return Status::InvalidArgument(
        "checkpoint block is internally inconsistent: header says " +
        std::to_string(st->num_items) + " items, the items record has " +
        std::to_string(n_items));
  }
  st->item_queries.resize(n_items);
  st->item_shards.resize(n_items);
  for (const ParsedRecord* rec : iq) {
    POLYDAB_RETURN_NOT_OK(CheckKeys(*rec, {"t", "i", "q", "s"}));
    size_t i = 0;
    POLYDAB_RETURN_NOT_OK(DecodeField(*rec, "i", &i));
    if (i >= n_items) {
      return LineError(rec->line_number, "ckpt 'iq' item out of range");
    }
    if (rec->strings.count("q") != 0) {
      POLYDAB_RETURN_NOT_OK(DecodeField(*rec, "q", &st->item_queries[i]));
    }
    if (rec->strings.count("s") != 0) {
      POLYDAB_RETURN_NOT_OK(DecodeField(*rec, "s", &st->item_shards[i]));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// WAL records.

constexpr char kWalVersion[] = "polydab.wal.v1";

/// Record tags, indexed by WalRecord::Kind.
constexpr const char* kKindTags[] = {"hdr", "row", "ack", "churn", "crash"};

Status DecodeWalRecord(const ParsedRecord& rec, WalRecord* out) {
  size_t kind = 0;
  while (kind < std::size(kKindTags) && rec.tag != kKindTags[kind]) ++kind;
  if (kind == std::size(kKindTags)) {
    return LineError(rec.line_number,
                     "unknown wal record kind '" + rec.tag + "'");
  }
  out->kind = static_cast<WalRecord::Kind>(kind);
  if (out->kind != WalRecord::Kind::kHeader) {
    return DecodeRecord(rec, out, kRecordFields);
  }
  std::string version;
  POLYDAB_RETURN_NOT_OK(Get(rec, rec.strings, "v", &version));
  if (version != kWalVersion) {
    return LineError(rec.line_number, "wal version skew: file says '" +
                                          version + "', this build reads '" +
                                          kWalVersion + "'");
  }
  return DecodeRecord(rec, out, kRecordFields, {"v"});
}

}  // namespace

Status WriteCheckpoint(const CheckpointState& state, const std::string& path) {
  const std::vector<std::string> lines = BuildBlockLines(state);
  const uint32_t digest = BlockDigest(lines);
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open '" + path +
                                   "' for appending");
  }
  bool ok = true;
  for (const std::string& line : lines) {
    ok = ok && std::fwrite(line.data(), 1, line.size(), f) == line.size();
    ok = ok && std::fputc('\n', f) != EOF;
  }
  ok = ok && std::fprintf(f, "{\"t\":\"end\",\"digest\":%" PRIu32
                             ",\"n\":%zu}\n",
                          digest, lines.size()) > 0;
  ok = ok && std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::OK();
}

Status LoadLatestCheckpoint(const std::string& path, CheckpointState* out) {
  std::string text;
  POLYDAB_RETURN_NOT_OK(ReadFileToString(path, &text));

  // Pass 1: split and syntax-parse every line, keeping raw bytes.
  std::vector<ParsedRecord> recs;
  POLYDAB_RETURN_NOT_OK(ParseRecordLines(text, "ckpt", "t", "type", &recs));
  if (recs.empty()) {
    return Status::InvalidArgument("'" + path + "' is empty");
  }

  // Pass 2: segment into blocks. Every block is hdr .. end; only the last
  // block may be footer-less (a torn write we fall back across).
  struct Block {
    size_t begin = 0;  // hdr index in recs
    size_t footer = 0; // end index, valid when complete
    bool complete = false;
  };
  std::vector<Block> blocks;
  for (size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].tag == "hdr") {
      blocks.push_back(Block{i, 0, false});
    } else if (recs[i].tag == "end") {
      if (blocks.empty() || blocks.back().complete) {
        return LineError(recs[i].line_number,
                         "ckpt digest footer without a block header");
      }
      blocks.back().footer = i;
      blocks.back().complete = true;
    } else if (blocks.empty() || blocks.back().complete) {
      return LineError(recs[i].line_number,
                       "ckpt record outside any block");
    }
  }
  const Block* chosen = nullptr;
  for (size_t b = blocks.size(); b > 0; --b) {
    if (blocks[b - 1].complete) {
      chosen = &blocks[b - 1];
      break;
    }
    if (b != blocks.size()) {
      return LineError(recs[blocks[b - 1].begin].line_number,
                       "ckpt block has no digest footer but is not the "
                       "last block in the file");
    }
  }
  if (chosen == nullptr) {
    return Status::InvalidArgument(
        "'" + path + "' has no complete checkpoint block (torn write with "
        "no earlier snapshot to fall back to)");
  }

  // Pass 3: verify the chosen block's digest footer.
  const ParsedRecord& footer = recs[chosen->footer];
  POLYDAB_RETURN_NOT_OK(CheckKeys(footer, {"t", "digest", "n"}));
  uint32_t want_digest = 0;
  size_t want_n = 0;
  POLYDAB_RETURN_NOT_OK(DecodeField(footer, "digest", &want_digest));
  POLYDAB_RETURN_NOT_OK(DecodeField(footer, "n", &want_n));
  std::vector<std::string> raw_lines;
  std::vector<const ParsedRecord*> block_recs;
  for (size_t i = chosen->begin; i < chosen->footer; ++i) {
    raw_lines.push_back(recs[i].raw);
    block_recs.push_back(&recs[i]);
  }
  if (want_n != raw_lines.size()) {
    return LineError(footer.line_number,
                     "ckpt footer line count mismatch: footer says " +
                         std::to_string(want_n) + ", block has " +
                         std::to_string(raw_lines.size()));
  }
  const uint32_t have_digest = BlockDigest(raw_lines);
  if (want_digest != have_digest) {
    return LineError(footer.line_number,
                     "ckpt digest mismatch: footer says " +
                         std::to_string(want_digest) +
                         ", block hashes to " + std::to_string(have_digest) +
                         " (corrupted snapshot)");
  }

  // Pass 4: strict field decode of the verified block.
  return DecodeBlock(block_recs, out);
}

std::string SummarizeCheckpoint(const CheckpointState& st) {
  size_t live = 0;
  for (const CheckpointQuery& q : st.queries) {
    if (q.slot.alive) ++live;
  }
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "format        %s\n", kCkptVersion);
  out += buf;
  std::snprintf(buf, sizeof(buf), "tick          %d (ticks_seen %d)\n",
                st.tick, st.ticks_seen);
  out += buf;
  std::snprintf(buf, sizeof(buf), "config_fp     %u\n", st.config_fp);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "queries       %zu live / %zu slots, %zu plan parts\n", live,
                st.queries.size(), st.parts.size());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "items         %d across %d sources, %d lanes\n",
                st.num_items, st.num_sources, st.num_shards);
  out += buf;
  std::snprintf(buf, sizeof(buf), "events queued %zu\n", st.events.size());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "trace         next_id %llu (checkpoint_end %llu)\n",
                static_cast<unsigned long long>(st.trace_next_id),
                static_cast<unsigned long long>(st.ckpt_end_id));
  out += buf;
  std::snprintf(buf, sizeof(buf), "fault mode    %s; churn index %s\n",
                st.fault_mode ? "on" : "off",
                st.dqi_built ? "built" : "absent");
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "metrics       refreshes %lld recomputations %lld "
                "dab_changes %lld notifications %lld\n",
                static_cast<long long>(st.refreshes),
                static_cast<long long>(st.recomputations),
                static_cast<long long>(st.dab_change_messages),
                static_cast<long long>(st.user_notifications));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "fault metrics drops %lld retransmits %lld dups %lld "
                "leases %lld degraded_s %s\n",
                static_cast<long long>(st.fault_drops),
                static_cast<long long>(st.retransmits),
                static_cast<long long>(st.duplicates_suppressed),
                static_cast<long long>(st.lease_expiries),
                EncodeDouble(st.degraded_query_seconds).c_str());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "instruments   %zu; service state %zu bytes\n",
                st.instruments.size(), st.service_state.size());
  out += buf;
  return out;
}

void AppendWal(std::FILE* f, const WalRecord& record) {
  LineBuilder b("w", kKindTags[static_cast<size_t>(record.kind)]);
  if (record.kind == WalRecord::Kind::kHeader) b.Add("v", kWalVersion, true);
  const std::string line = b.Done(RenderFields(record, kRecordFields));
  std::fprintf(f, "%s\n", line.c_str());
}

Status LoadWal(const std::string& path, std::vector<WalRecord>* out) {
  out->clear();
  std::string text;
  POLYDAB_RETURN_NOT_OK(ReadFileToString(path, &text));
  std::vector<ParsedRecord> recs;
  POLYDAB_RETURN_NOT_OK(ParseRecordLines(text, "wal", "w", "kind", &recs));
  bool saw_header = false;
  for (const ParsedRecord& rec : recs) {
    WalRecord record;
    POLYDAB_RETURN_NOT_OK(DecodeWalRecord(rec, &record));
    if (record.kind == WalRecord::Kind::kHeader) {
      saw_header = true;
      continue;  // headers carry no state; one per engine invocation
    }
    if (!saw_header) {
      return LineError(rec.line_number, "wal record before any 'hdr' record");
    }
    out->push_back(std::move(record));
  }
  if (!saw_header) {
    return Status::InvalidArgument("'" + path +
                                   "': not a polydab WAL (no 'hdr' record)");
  }
  return Status::OK();
}

const WalRecord* LastCrashMarker(const std::vector<WalRecord>& records) {
  for (size_t i = records.size(); i > 0; --i) {
    if (records[i - 1].kind == WalRecord::Kind::kCrash) return &records[i - 1];
  }
  return nullptr;
}

namespace {

/// Diff helper: count every difference, print the first max_lines of them.
struct DiffSink {
  int count = 0;
  int max_lines = 0;
  std::string* out = nullptr;

  void Report(const std::string& path, const std::string& a,
              const std::string& b) {
    if (a == b) return;
    ++count;
    if (count <= max_lines) {
      *out += "  " + path + ": " + Clip(a) + " vs " + Clip(b) + "\n";
    }
  }
  static std::string Clip(const std::string& s) {
    return s.size() > 40 ? s.substr(0, 40) + "..." : s;
  }

  /// Every field of one record, compared as serialized. A kind-dependent
  /// record (reg) whose kinds differ renders different key lists; its
  /// "k" field reports that, and the shared prefix is still compared.
  template <class T, class Walk>
  void Fields(const std::string& path, const T& a, const T& b, Walk walk) {
    const Render ra = RenderFields(a, walk), rb = RenderFields(b, walk);
    for (size_t i = 0; i < ra.fields.size() && i < rb.fields.size(); ++i) {
      Report(path + ra.fields[i].key, ra.fields[i].text, rb.fields[i].text);
    }
  }
  /// A record vector, element by element. \p counted: the header already
  /// reports a size difference.
  template <class T>
  void Records(const std::string& tag, const std::vector<T>& a,
               const std::vector<T>& b, bool counted) {
    if (!counted) {
      Report(tag + ".size", std::to_string(a.size()), std::to_string(b.size()));
    }
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      Fields(tag + "[" + std::to_string(i) + "].", a[i], b[i], kRecordFields);
    }
  }
};

}  // namespace

int DiffCheckpoints(const CheckpointState& a, const CheckpointState& b,
                    int max_lines, std::string* out) {
  DiffSink d;
  d.max_lines = max_lines;
  d.out = out;
  d.Fields("hdr.", a, b, kHeader);
  d.Fields("met.", a, b, kMetrics);
  d.Records("q", a.queries, b.queries, /*counted=*/true);
  d.Records("part", a.parts, b.parts, /*counted=*/true);
  d.Fields("items.", a, b, kItems);
  const size_t n_iq = std::min({a.item_queries.size(), b.item_queries.size(),
                                a.item_shards.size(), b.item_shards.size()});
  for (size_t i = 0; i < n_iq; ++i) {
    const std::string p = "iq[" + std::to_string(i) + "].";
    d.Report(p + "q", FieldText(a.item_queries[i]),
             FieldText(b.item_queries[i]));
    d.Report(p + "s", FieldText(a.item_shards[i]),
             FieldText(b.item_shards[i]));
  }
  d.Records("ev", a.events, b.events, /*counted=*/true);
  d.Records("src", a.sources, b.sources, /*counted=*/false);
  d.Records("if", a.item_fault, b.item_fault, /*counted=*/false);
  d.Records("reg", a.instruments, b.instruments, /*counted=*/false);
  if (d.count > d.max_lines) {
    *out += "  ... " + std::to_string(d.count - d.max_lines) +
            " more difference(s)\n";
  }
  return d.count;
}

}  // namespace polydab::recovery
