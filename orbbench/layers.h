// The operations an rpc workload issues, and the traced run's replays of
// them through single layers with no transport: the wire layer
// (Protocol::EncodeCall, FrameDecoder::TryParseFrame) and skeleton
// dispatch (HdSkeleton::Dispatch).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace orbbench {

enum class OpKind : uint8_t { kAdd, kEcho, kBlob, kPost };

struct Op {
  OpKind kind = OpKind::kAdd;
  int32_t a = 0;
  int32_t b = 0;
  const std::string* data = nullptr;      // echo/blob payload, post event
  const std::string* expected = nullptr;  // blob: the payload reversed
};

const char* OpName(OpKind kind);

struct WireLayer {
  double encode_ns_per_call = 0;  // marshal + EncodeCall, request + reply
  double decode_ns_per_call = 0;  // TryParseFrame + unmarshal, both ways
  double request_bytes_per_call = 0;
  double reply_bytes_per_call = 0;
  bool correct = true;  // every decoded value matched what was encoded
};

// Replays `ops` as framed request/reply pairs in `protocol` for at least
// three passes and about `budget_s` seconds; per-call figures are the
// median over passes.
WireLayer ReplayWire(const char* protocol, const std::vector<Op>& ops,
                     double budget_s);

// Median ns per HdSkeleton::Dispatch of the decoded `ops` requests.
double ReplayDispatch(const char* protocol, const std::vector<Op>& ops,
                      double budget_s);

}  // namespace orbbench
