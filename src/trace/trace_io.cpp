#include "trace/trace_io.hpp"

#include <cstring>
#include <ostream>
#include <stdexcept>
#include <type_traits>

#include "util/fnv.hpp"

namespace p2pgen::trace {
namespace {

constexpr char kMagic[4] = {'P', '2', 'P', 'T'};
constexpr std::uint32_t kVersion = 2;  // v2 adds MessageEvent::guid_hash

enum class RecordKind : std::uint8_t {
  kSessionStart = 1,
  kMessage = 2,
  kSessionEnd = 3,
};

// The one record encoder writes PoD fields and length-prefixed strings
// straight into a byte string; every writer (digests, spool frames,
// replay checks) encodes through append_event_binary.
template <typename T>
void put_pod(std::string& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

void put_string(std::string& out, const std::string& s) {
  put_pod(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Read cursor over one encoded record: tracks the byte offset so every
/// failure can name where in the record it happened.
class MemSource {
 public:
  MemSource(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint64_t offset() const noexcept { return offset_; }
  std::size_t remaining() const noexcept {
    return size_ - static_cast<std::size_t>(offset_);
  }

  void get_bytes(void* out, std::size_t n) {
    if (remaining() < n) {
      const std::size_t missing = n - remaining();
      offset_ = size_;
      throw TraceIoError("trace: truncated record (needed " +
                             std::to_string(missing) +
                             " more byte(s)) at byte offset " +
                             std::to_string(offset_),
                         offset_);
    }
    std::memcpy(out, data_ + offset_, n);
    offset_ += n;
  }

  template <typename T>
  T get_pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    get_bytes(&value, sizeof(value));
    return value;
  }

  std::string get_string() {
    const auto at = offset();
    const auto size = get_pod<std::uint32_t>();
    if (size > 1u << 20) {
      throw TraceIoError("trace: oversized string (" + std::to_string(size) +
                             " bytes) at byte offset " + std::to_string(at),
                         at);
    }
    std::string s(size, '\0');
    if (size > 0) get_bytes(s.data(), size);
    return s;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::uint64_t offset_ = 0;
};

TraceEvent read_event(MemSource& in, RecordKind kind) {
  switch (kind) {
    case RecordKind::kSessionStart: {
      SessionStart s;
      s.time = in.get_pod<double>();
      s.session_id = in.get_pod<std::uint64_t>();
      s.ip = in.get_pod<std::uint32_t>();
      s.ultrapeer = in.get_pod<std::uint8_t>() != 0;
      s.user_agent = in.get_string();
      return s;
    }
    case RecordKind::kMessage: {
      MessageEvent m;
      m.time = in.get_pod<double>();
      m.session_id = in.get_pod<std::uint64_t>();
      m.type = static_cast<gnutella::MessageType>(in.get_pod<std::uint8_t>());
      m.ttl = in.get_pod<std::uint8_t>();
      m.hops = in.get_pod<std::uint8_t>();
      m.guid_hash = in.get_pod<std::uint64_t>();
      m.query = in.get_string();
      m.sha1 = in.get_pod<std::uint8_t>() != 0;
      m.source_ip = in.get_pod<std::uint32_t>();
      m.shared_files = in.get_pod<std::uint32_t>();
      return m;
    }
    case RecordKind::kSessionEnd: {
      SessionEnd e;
      e.time = in.get_pod<double>();
      e.session_id = in.get_pod<std::uint64_t>();
      // Readers index per-reason counters by this byte: refuse what no
      // EndReason names.
      const auto at = in.offset();
      const auto reason = in.get_pod<std::uint8_t>();
      if (reason > static_cast<std::uint8_t>(EndReason::kError)) {
        throw TraceIoError("trace: unknown end reason " +
                               std::to_string(reason) + " at byte offset " +
                               std::to_string(at),
                           at);
      }
      e.reason = static_cast<EndReason>(reason);
      return e;
    }
  }
  throw TraceIoError("trace: unknown record kind " +
                         std::to_string(static_cast<int>(kind)) +
                         " at byte offset 0",
                     0);
}

}  // namespace

void SalvageReport::merge_shard(SalvageReport&& other, unsigned shard) {
  records_recovered += other.records_recovered;
  frames_lost += other.frames_lost;
  bytes_quarantined += other.bytes_quarantined;
  censored_sessions += other.censored_sessions;
  censored_queries += other.censored_queries;
  for (auto& range : other.ranges) {
    range.shard = shard;
    ranges.push_back(std::move(range));
  }
}

void append_event_binary(const TraceEvent& event, std::string& out) {
  if (const auto* start = std::get_if<SessionStart>(&event)) {
    put_pod(out, RecordKind::kSessionStart);
    put_pod(out, start->time);
    put_pod(out, start->session_id);
    put_pod(out, start->ip);
    put_pod(out, static_cast<std::uint8_t>(start->ultrapeer));
    put_string(out, start->user_agent);
  } else if (const auto* msg = std::get_if<MessageEvent>(&event)) {
    put_pod(out, RecordKind::kMessage);
    put_pod(out, msg->time);
    put_pod(out, msg->session_id);
    put_pod(out, static_cast<std::uint8_t>(msg->type));
    put_pod(out, msg->ttl);
    put_pod(out, msg->hops);
    put_pod(out, msg->guid_hash);
    put_string(out, msg->query);
    put_pod(out, static_cast<std::uint8_t>(msg->sha1));
    put_pod(out, msg->source_ip);
    put_pod(out, msg->shared_files);
  } else {
    const auto& end = std::get<SessionEnd>(event);
    put_pod(out, RecordKind::kSessionEnd);
    put_pod(out, end.time);
    put_pod(out, end.session_id);
    put_pod(out, static_cast<std::uint8_t>(end.reason));
  }
}

void append_header_binary(std::string& out) {
  out.append(kMagic, sizeof(kMagic));
  put_pod(out, kVersion);
}

TraceEvent decode_event_binary(const std::uint8_t* data, std::size_t size) {
  MemSource source(data, size);
  std::uint8_t kind_byte = 0;
  source.get_bytes(&kind_byte, 1);
  TraceEvent event = read_event(source, static_cast<RecordKind>(kind_byte));
  if (source.remaining() != 0) {
    throw TraceIoError("trace: record carries " +
                           std::to_string(source.remaining()) +
                           " trailing byte(s)",
                       source.offset());
  }
  return event;
}

std::uint64_t binary_digest(const Trace& trace) {
  std::string buf;
  append_header_binary(buf);
  std::uint64_t hash =
      util::fnv1a_update(util::kFnvOffsetBasis, buf.data(), buf.size());
  for (const auto& event : trace.events()) {
    buf.clear();
    append_event_binary(event, buf);
    hash = util::fnv1a_update(hash, buf.data(), buf.size());
  }
  return hash;
}

void write_csv(const Trace& trace, std::ostream& out) {
  out << "kind,time,session_id,ip,ultrapeer,user_agent,type,ttl,hops,query,"
         "sha1,source_ip,shared_files,guid_hash,end_reason\n";
  for (const auto& event : trace.events()) {
    if (const auto* s = std::get_if<SessionStart>(&event)) {
      out << "start," << s->time << ',' << s->session_id << ',' << s->ip << ','
          << (s->ultrapeer ? 1 : 0) << ",\"" << s->user_agent
          << "\",,,,,,,,\n";
    } else if (const auto* m = std::get_if<MessageEvent>(&event)) {
      out << "msg," << m->time << ',' << m->session_id << ",,,,"
          << gnutella::message_type_name(m->type) << ','
          << static_cast<int>(m->ttl) << ',' << static_cast<int>(m->hops)
          << ",\"" << m->query << "\"," << (m->sha1 ? 1 : 0) << ','
          << m->source_ip << ',' << m->shared_files << ',' << m->guid_hash
          << ",\n";
    } else {
      const auto& e = std::get<SessionEnd>(event);
      out << "end," << e.time << ',' << e.session_id << ",,,,,,,,,,,,"
          << static_cast<int>(e.reason) << '\n';
    }
  }
}

}  // namespace p2pgen::trace
