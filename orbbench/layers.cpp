#include "layers.h"

#include <cstring>
#include <memory>

#include "demo/demo.h"
#include "net/inbound.h"
#include "orb/orb.h"
#include "servant.h"
#include "stats.h"
#include "support/bytes.h"
#include "wire/protocol.h"

namespace orbbench {

namespace hw = heidi::wire;

const char* OpName(OpKind kind) {
  switch (kind) {
    case OpKind::kAdd: return "add";
    case OpKind::kEcho: return "echo";
    case OpKind::kBlob: return "blob";
    case OpKind::kPost: return "post";
  }
  return "?";
}

namespace {

// Any syntactically valid reference; no replay resolves it.
constexpr const char* kTarget = "@tcp:127.0.0.1:1#1000#IDL:Heidi/Echo:1.0";

std::unique_ptr<hw::Call> MakeRequest(const hw::Protocol& proto, const Op& op,
                                      uint64_t id) {
  auto call = proto.NewCall();
  call->SetKind(hw::CallKind::kRequest);
  call->SetCallId(id);
  call->SetTarget(kTarget);
  call->SetOperation(OpName(op.kind));
  call->SetOneway(op.kind == OpKind::kPost);
  switch (op.kind) {
    case OpKind::kAdd:
      call->PutLong(op.a);
      call->PutLong(op.b);
      break;
    case OpKind::kEcho:
    case OpKind::kPost:
      call->PutString(*op.data);
      break;
    case OpKind::kBlob:
      call->PutBytes(*op.data);
      break;
  }
  return call;
}

// Null for oneways.
std::unique_ptr<hw::Call> MakeReply(const hw::Protocol& proto, const Op& op,
                                    uint64_t id) {
  if (op.kind == OpKind::kPost) return nullptr;
  auto call = proto.NewCall();
  call->SetKind(hw::CallKind::kReply);
  call->SetCallId(id);
  call->SetStatus(hw::CallStatus::kOk);
  switch (op.kind) {
    case OpKind::kAdd: call->PutLong(op.a + op.b); break;
    case OpKind::kEcho: call->PutString(*op.data); break;
    case OpKind::kBlob: call->PutBytes(*op.expected); break;
    case OpKind::kPost: break;
  }
  return call;
}

void Flatten(const heidi::bytes::BufferChain& frame, std::string& out) {
  out.clear();
  for (const auto& slice : frame.Slices()) out.append(slice.View());
}

// Copies a frame into a fresh inbound buffer, as a socket read would.
void Fill(heidi::net::IncomingBuffer& in, std::string_view frame) {
  std::memcpy(in.WritePtr(frame.size()), frame.data(), frame.size());
  in.CommitWrite(frame.size());
}

// Unmarshals a request's arguments the way the skeleton does; true when
// they equal what `op` sent.
bool ReadRequest(hw::Call& call, const Op& op) {
  switch (op.kind) {
    case OpKind::kAdd: {
      int32_t a = call.GetLong();
      int32_t b = call.GetLong();
      return a == op.a && b == op.b;
    }
    case OpKind::kEcho:
    case OpKind::kPost:
      return call.GetStringView() == *op.data;
    case OpKind::kBlob:
      return call.GetBytesView() == *op.data;
  }
  return false;
}

// Unmarshals a reply the way the stub does.
bool ReadReply(hw::Call& call, const Op& op) {
  switch (op.kind) {
    case OpKind::kAdd: return call.GetLong() == op.a + op.b;
    case OpKind::kEcho: return call.GetString() == *op.data;
    case OpKind::kBlob: return call.GetBytes() == *op.expected;
    case OpKind::kPost: return true;
  }
  return false;
}

}  // namespace

WireLayer ReplayWire(const char* protocol, const std::vector<Op>& ops,
                     double budget_s) {
  const hw::Protocol& proto = *hw::FindProtocol(protocol);
  std::vector<double> encode_ns, decode_ns;
  WireLayer out;
  double request_bytes = 0;
  double reply_bytes = 0;
  const int64_t deadline = MonoNs() + static_cast<int64_t>(budget_s * 1e9);
  for (int pass = 0; pass < 3 || MonoNs() < deadline; ++pass) {
    // Each frame is encoded, copied out and released before the next, as
    // on the orb's send path; only the encoding is timed.
    std::vector<std::string> requests(ops.size());
    std::vector<std::string> replies(ops.size());
    int64_t encode = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
      for (int dir = 0; dir < 2; ++dir) {
        heidi::bytes::BufferChain frame;
        int64_t e0 = MonoNs();
        auto call = dir == 0 ? MakeRequest(proto, ops[i], i + 1)
                             : MakeReply(proto, ops[i], i + 1);
        if (call != nullptr) proto.EncodeCall(frame, *call);
        encode += MonoNs() - e0;
        Flatten(frame, dir == 0 ? requests[i] : replies[i]);
      }
    }
    encode_ns.push_back(static_cast<double>(encode));

    int64_t decode = 0;
    auto decoder = proto.NewFrameDecoder();
    for (size_t i = 0; i < ops.size(); ++i) {
      for (int dir = 0; dir < 2; ++dir) {
        const std::string& frame = dir == 0 ? requests[i] : replies[i];
        if (frame.empty()) continue;
        heidi::net::IncomingBuffer in;
        Fill(in, frame);
        int64_t d0 = MonoNs();
        std::unique_ptr<hw::Call> call = decoder->TryParseFrame(in);
        bool ok = call != nullptr &&
                  (dir == 0 ? ReadRequest(*call, ops[i]) : ReadReply(*call, ops[i]));
        decode += MonoNs() - d0;
        out.correct = out.correct && ok;
      }
    }
    decode_ns.push_back(static_cast<double>(decode));
    if (pass == 0) {
      for (size_t i = 0; i < ops.size(); ++i) {
        request_bytes += static_cast<double>(requests[i].size());
        reply_bytes += static_cast<double>(replies[i].size());
      }
    }
  }
  const double n = static_cast<double>(ops.size());
  out.encode_ns_per_call = Median(encode_ns) / n;
  out.decode_ns_per_call = Median(decode_ns) / n;
  out.request_bytes_per_call = request_bytes / n;
  out.reply_bytes_per_call = reply_bytes / n;
  return out;
}

double ReplayDispatch(const char* protocol, const std::vector<Op>& ops,
                      double budget_s) {
  heidi::orb::OrbOptions options;
  options.protocol = protocol;
  heidi::orb::Orb orb(options);
  BenchEcho servant;
  heidi::demo::Echo_skel skel(orb, &servant);
  const hw::Protocol& proto = orb.Protocol();

  std::vector<double> pass_ns;
  const int64_t deadline = MonoNs() + static_cast<int64_t>(budget_s * 1e9);
  for (int pass = 0; pass < 3 || MonoNs() < deadline; ++pass) {
    // Decoded requests and empty replies, made before the clock starts.
    std::vector<std::unique_ptr<hw::Call>> requests;
    std::vector<std::unique_ptr<hw::Call>> replies;
    auto decoder = proto.NewFrameDecoder();
    for (size_t i = 0; i < ops.size(); ++i) {
      heidi::bytes::BufferChain chain;
      proto.EncodeCall(chain, *MakeRequest(proto, ops[i], i + 1));
      std::string frame;
      Flatten(chain, frame);
      heidi::net::IncomingBuffer in;
      Fill(in, frame);
      requests.push_back(decoder->TryParseFrame(in));
      replies.push_back(proto.NewCall());
    }
    int64_t total = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
      int64_t t0 = MonoNs();
      skel.Dispatch(requests[i]->Operation(), *requests[i], *replies[i]);
      total += MonoNs() - t0;
    }
    pass_ns.push_back(static_cast<double>(total));
  }
  orb.Shutdown();
  return Median(pass_ns) / static_cast<double>(ops.size());
}

}  // namespace orbbench
