#include "service/wire.hpp"

#if !defined(_WIN32)
#include <sys/socket.h>
#endif

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace lol::service::wire {

namespace {

constexpr int kMaxDepth = 32;

/// Cursor over the input with one-token-lookahead helpers.
struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  bool fail(const std::string& msg) {
    if (error.empty()) {
      error = msg + " at byte " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool parse_value(Json& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    char c = text[pos];
    switch (c) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"': out.kind = Json::Kind::kString; return parse_string(out.str);
      case 't':
        if (text.substr(pos, 4) == "true") {
          pos += 4;
          out.kind = Json::Kind::kBool;
          out.b = true;
          return true;
        }
        return fail("bad literal");
      case 'f':
        if (text.substr(pos, 5) == "false") {
          pos += 5;
          out.kind = Json::Kind::kBool;
          out.b = false;
          return true;
        }
        return fail("bad literal");
      case 'n':
        if (text.substr(pos, 4) == "null") {
          pos += 4;
          out.kind = Json::Kind::kNull;
          return true;
        }
        return fail("bad literal");
      default: return parse_number(out);
    }
  }

  bool parse_string(std::string& out) {
    if (!eat('"')) return fail("expected string");
    out.clear();
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) return fail("dangling escape");
      char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > text.size()) return fail("bad \\u escape");
          unsigned v = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text[pos++];
            v <<= 4;
            if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are passed
          // through as two 3-byte sequences — good enough for a wire
          // format whose payloads are LOLCODE text).
          if (v < 0x80) {
            out += static_cast<char>(v);
          } else if (v < 0x800) {
            out += static_cast<char>(0xC0 | (v >> 6));
            out += static_cast<char>(0x80 | (v & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (v >> 12));
            out += static_cast<char>(0x80 | ((v >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (v & 0x3F));
          }
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(Json& out) {
    skip_ws();
    std::size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '-' || text[pos] == '+')) {
      ++pos;
    }
    if (pos == start) return fail("expected value");
    std::string num(text.substr(start, pos - start));
    char* end = nullptr;
    double v = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) return fail("bad number");
    out.kind = Json::Kind::kNumber;
    out.num = v;
    return true;
  }

  bool parse_array(Json& out, int depth) {
    out.kind = Json::Kind::kArray;
    if (!eat('[')) return fail("expected array");
    if (eat(']')) return true;
    for (;;) {
      Json v;
      if (!parse_value(v, depth + 1)) return false;
      out.arr.push_back(std::move(v));
      if (eat(',')) continue;
      if (eat(']')) return true;
      return fail("expected ',' or ']'");
    }
  }

  bool parse_object(Json& out, int depth) {
    out.kind = Json::Kind::kObject;
    if (!eat('{')) return fail("expected object");
    if (eat('}')) return true;
    for (;;) {
      std::string key;
      if (!parse_string(key)) return false;
      if (!eat(':')) return fail("expected ':'");
      Json v;
      if (!parse_value(v, depth + 1)) return false;
      out.obj.emplace_back(std::move(key), std::move(v));
      if (eat(',')) continue;
      if (eat('}')) return true;
      return fail("expected ',' or '}'");
    }
  }
};

/// Reads an unsigned integer member with a default. Untrusted input:
/// non-finite, negative or absurdly large numbers fall back — casting
/// inf/1e400 to uint64_t would be undefined behavior.
std::uint64_t u64_or(const Json& obj, std::string_view key,
                     std::uint64_t fallback) {
  constexpr double kMax = 9.0e18;  // < 2^63, exactly representable
  const Json* v = obj.find(key);
  if (v == nullptr || !v->is(Json::Kind::kNumber)) return fallback;
  double d = v->num;
  if (!std::isfinite(d) || d < 0 || d > kMax) return fallback;
  return static_cast<std::uint64_t>(d);
}

std::string str_or(const Json& obj, std::string_view key,
                   std::string fallback) {
  const Json* v = obj.find(key);
  if (v == nullptr || !v->is(Json::Kind::kString)) return fallback;
  return v->str;
}

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ',';
    out += quote(items[i]);
  }
  out += ']';
  return out;
}

std::string fmt_ms(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

const Json* Json::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<Json> parse_json(std::string_view text, std::string* error) {
  Parser p{text};
  Json out;
  if (!p.parse_value(out, 0)) {
    if (error != nullptr) *error = p.error;
    return std::nullopt;
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (error != nullptr) *error = "trailing characters after JSON value";
    return std::nullopt;
  }
  return out;
}

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::optional<Request> parse_request(const std::string& line,
                                     std::string* error) {
  auto doc = parse_json(line, error);
  if (!doc) return std::nullopt;
  if (!doc->is(Json::Kind::kObject)) {
    if (error != nullptr) *error = "request must be a JSON object";
    return std::nullopt;
  }
  std::string op = str_or(*doc, "op", "");
  Request req;
  if (op == "submit") {
    req.op = Request::Op::kSubmit;
    const Json* src = doc->find("source");
    if (src == nullptr || !src->is(Json::Kind::kString)) {
      if (error != nullptr) *error = "submit requires a string 'source'";
      return std::nullopt;
    }
    req.job.source = src->str;
    req.job.name = str_or(*doc, "name", "anonymous");
    req.job.tenant = str_or(*doc, "tenant", "");
    // The service clamps to its max_pes; this bound only keeps the
    // u64->int narrowing well-behaved for hostile values.
    req.job.n_pes = static_cast<int>(
        std::min<std::uint64_t>(u64_or(*doc, "n_pes", 1), 4096));
    req.job.seed = u64_or(*doc, "seed", req.job.seed);
    req.job.max_steps = u64_or(*doc, "max_steps", 0);
    req.job.deadline_ms = u64_or(*doc, "deadline_ms", 0);
    req.job.heap_bytes = static_cast<std::size_t>(
        u64_or(*doc, "heap_bytes", req.job.heap_bytes));
    std::string backend = str_or(*doc, "backend", "vm");
    if (auto b = backend_from_name(backend)) {
      req.job.backend = *b;
    } else {
      if (error != nullptr) *error = "unknown backend '" + backend + "'";
      return std::nullopt;
    }
    std::string executor =
        str_or(*doc, "executor", shmem::to_string(req.job.executor));
    if (auto e = shmem::executor_from_name(executor)) {
      req.job.executor = *e;
    } else {
      if (error != nullptr) *error = "unknown executor '" + executor + "'";
      return std::nullopt;
    }
    // Same narrowing guard as n_pes; the engine treats 0 as auto.
    req.job.pes_per_thread = static_cast<int>(
        std::min<std::uint64_t>(u64_or(*doc, "pes_per_thread", 0), 4096));
    // Combining-tree fan-in; < 2 means auto, results are radix-invariant.
    req.job.barrier_radix = static_cast<int>(
        std::min<std::uint64_t>(u64_or(*doc, "barrier_radix", 0), 4096));
    // Optimization level. Unlike the lenient numeric knobs above, a
    // malformed value is a protocol error: silently compiling at a
    // different level than the client asked for would change step
    // counts under it (dce, fuse and licm re-shape code), so
    // "opt_level":-1 or "opt_level":"max" must be refused, not defaulted.
    if (const Json* lvl = doc->find("opt_level"); lvl != nullptr) {
      bool valid = lvl->is(Json::Kind::kNumber) && std::isfinite(lvl->num) &&
                   lvl->num == std::floor(lvl->num) && lvl->num >= 0.0 &&
                   lvl->num <= 2.0;
      if (!valid) {
        if (error != nullptr) {
          *error = "opt_level must be an integer in 0..2";
        }
        return std::nullopt;
      }
      req.job.opt_level = static_cast<int>(lvl->num);
    }
    if (const Json* lines = doc->find("stdin");
        lines != nullptr && lines->is(Json::Kind::kArray)) {
      for (const Json& l : lines->arr) {
        if (l.is(Json::Kind::kString)) req.job.stdin_lines.push_back(l.str);
      }
    }
    // Deterministic scheduling + fault injection. "schedule" and the
    // trace/fault payloads are validated by the service (bad values
    // resolve the job as kRejected with a diagnostic), except the mode
    // name itself, which is a protocol error like an unknown backend.
    std::string schedule = str_or(*doc, "schedule", "none");
    if (schedule == "none") {
      req.job.schedule = replay::ScheduleMode::kNone;
    } else if (schedule == "record") {
      req.job.schedule = replay::ScheduleMode::kRecord;
    } else if (schedule == "perturb") {
      req.job.schedule = replay::ScheduleMode::kPerturb;
    } else if (schedule == "replay") {
      req.job.schedule = replay::ScheduleMode::kReplay;
    } else {
      if (error != nullptr) *error = "unknown schedule '" + schedule + "'";
      return std::nullopt;
    }
    req.job.perturb_seed = u64_or(*doc, "perturb_seed", 0);
    req.job.replay_trace = str_or(*doc, "replay", "");
    req.job.fault_spec = str_or(*doc, "fault", "");
    return req;
  }
  if (op == "cancel") {
    req.op = Request::Op::kCancel;
    req.id = u64_or(*doc, "id", 0);
    if (req.id == 0) {
      if (error != nullptr) *error = "cancel requires a numeric 'id'";
      return std::nullopt;
    }
    return req;
  }
  if (op == "stats") {
    req.op = Request::Op::kStats;
    return req;
  }
  if (op == "metrics") {
    req.op = Request::Op::kMetrics;
    return req;
  }
  if (op == "ping") {
    req.op = Request::Op::kPing;
    return req;
  }
  if (op == "shutdown") {
    req.op = Request::Op::kShutdown;
    return req;
  }
  if (error != nullptr) *error = "unknown op '" + op + "'";
  return std::nullopt;
}

const char* backend_name(Backend b) { return lol::to_string(b); }

#if !defined(_WIN32)

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

std::optional<std::string> LineReader::next() {
  for (;;) {
    std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    if (buf_.size() > max_line_) {
      // A multi-MiB line with no newline is not a protocol client.
      too_long_ = true;
      return std::nullopt;
    }
    char chunk[4096];
    ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;  // peer closed (or socket shut down)
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

#endif  // !_WIN32

std::string submit_line(const Job& job) {
  auto n = [](std::uint64_t v) { return std::to_string(v); };
  return "{\"op\":\"submit\",\"name\":" + quote(job.name) +
         ",\"source\":" + quote(job.source) +
         ",\"tenant\":" + quote(job.tenant) +
         ",\"n_pes\":" + std::to_string(job.n_pes) +
         ",\"backend\":\"" + backend_name(job.backend) + "\"" +
         ",\"executor\":\"" + shmem::to_string(job.executor) + "\"" +
         ",\"pes_per_thread\":" + std::to_string(job.pes_per_thread) +
         ",\"barrier_radix\":" + std::to_string(job.barrier_radix) +
         ",\"opt_level\":" + std::to_string(job.opt_level) +
         ",\"seed\":" + n(job.seed) + ",\"max_steps\":" + n(job.max_steps) +
         ",\"deadline_ms\":" + n(job.deadline_ms) +
         ",\"heap_bytes\":" + n(job.heap_bytes) +
         ",\"schedule\":\"" + replay::to_string(job.schedule) + "\"" +
         ",\"perturb_seed\":" + n(job.perturb_seed) +
         ",\"replay\":" + quote(job.replay_trace) +
         ",\"fault\":" + quote(job.fault_spec) +
         ",\"stdin\":" + json_array(job.stdin_lines) + "}";
}

std::string cancel_request_line(JobId id) {
  return "{\"op\":\"cancel\",\"id\":" + std::to_string(id) + "}";
}

std::string request_line(const Request& req) {
  switch (req.op) {
    case Request::Op::kSubmit: return submit_line(req.job);
    case Request::Op::kCancel: return cancel_request_line(req.id);
    case Request::Op::kStats: return "{\"op\":\"stats\"}";
    case Request::Op::kMetrics: return "{\"op\":\"metrics\"}";
    case Request::Op::kPing: return "{\"op\":\"ping\"}";
    case Request::Op::kShutdown: return "{\"op\":\"shutdown\"}";
  }
  return "{\"op\":\"ping\"}";
}

std::string accepted_line(JobId id, const Job& job) {
  return "{\"event\":\"accepted\",\"id\":" + std::to_string(id) +
         ",\"name\":" + quote(job.name) +
         ",\"tenant\":" + quote(job.tenant) + "}";
}

std::string result_line(const JobResult& r) {
  std::string out = "{\"event\":\"done\",\"id\":" + std::to_string(r.id) +
                    ",\"name\":" + quote(r.name) +
                    ",\"tenant\":" + quote(r.tenant) + ",\"status\":\"" +
                    to_string(r.status) + "\",\"error\":" + quote(r.error) +
                    ",\"cached\":" + (r.compile_cache_hit ? "true" : "false") +
                    ",\"queue_ms\":" + fmt_ms(r.queue_ms) +
                    ",\"run_ms\":" + fmt_ms(r.run_ms) + ",\"trace\":[";
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    const TraceSpan& sp = r.trace[i];
    if (i != 0) out += ',';
    out += "{\"span\":" + quote(sp.name) +
           ",\"start_ms\":" + fmt_ms(sp.start_ms) +
           ",\"dur_ms\":" + fmt_ms(sp.dur_ms) + "}";
  }
  out += "],\"output\":" + json_array(r.pe_output) +
         ",\"errout\":" + json_array(r.pe_errout);
  if (!r.schedule_trace.empty()) {
    out += ",\"sched_trace\":" + quote(r.schedule_trace);
  }
  out += "}";
  return out;
}

std::string cancel_line(JobId id, bool ok) {
  return "{\"event\":\"cancel\",\"id\":" + std::to_string(id) +
         ",\"ok\":" + (ok ? "true" : "false") + "}";
}

std::string stats_line(const Service::Stats& s) {
  auto n = [](std::uint64_t v) { return std::to_string(v); };
  return "{\"event\":\"stats\",\"submitted\":" + n(s.submitted) +
         ",\"completed\":" + n(s.completed) + ",\"ok\":" + n(s.ok) +
         ",\"compile_errors\":" + n(s.compile_errors) +
         ",\"runtime_errors\":" + n(s.runtime_errors) +
         ",\"step_limited\":" + n(s.step_limited) +
         ",\"deadline_exceeded\":" + n(s.deadline_exceeded) +
         ",\"cancelled\":" + n(s.cancelled) +
         ",\"rejected\":" + n(s.rejected) +
         ",\"quota_rejected\":" + n(s.quota_rejected) +
         ",\"pe_failed\":" + n(s.pe_failed) +
         ",\"replay_diverged\":" + n(s.replay_diverged) +
         ",\"cache_hits\":" + n(s.cache.hits) +
         ",\"cache_misses\":" + n(s.cache.misses) +
         ",\"cache_evictions\":" + n(s.cache.evictions) + "}";
}

std::string metrics_line(std::string_view exposition) {
  return "{\"event\":\"metrics\",\"text\":" + quote(exposition) + "}";
}

std::string pong_line() { return "{\"event\":\"pong\"}"; }

std::string bye_line() { return "{\"event\":\"bye\"}"; }

std::string error_line(std::string_view message) {
  return "{\"event\":\"error\",\"message\":" + quote(message) + "}";
}

}  // namespace lol::service::wire
