// Byte-identity helper for tests.
//
// The full byte string binary_digest() hashes: the stream header, then
// every record's encoding in trace order.  Tests compare these strings,
// not digests, so a mismatch shows where two traces diverge.
#pragma once

#include <string>

#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace p2pgen {

inline std::string trace_bytes(const trace::Trace& trace) {
  std::string bytes;
  trace::append_header_binary(bytes);
  for (const auto& event : trace.events()) {
    trace::append_event_binary(event, bytes);
  }
  return bytes;
}

}  // namespace p2pgen
