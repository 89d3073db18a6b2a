// The benchmark's HdEcho servant. Unlike demo::EchoImpl it stores no
// oneway events: it counts them, verifies each one's checksum, and checks
// that every caller's sequence numbers arrive in order, so memory stays
// flat however long a run lasts.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "demo/interfaces.h"

namespace orbbench {

class BenchEcho : public virtual HdEcho {
 public:
  HD_DECLARE_TYPE();

  // Deliberate faults, for the benchmark's own tests: a wrong sum, or
  // caller 0's first post delivered after its second.
  enum class Fault { kNone, kAddOffByOne, kReorderPosts };

  explicit BenchEcho(Fault fault = Fault::kNone) : fault_(fault) {}

  HdString echo(HdStringView msg) override { return HdString(msg); }
  long add(long a, long b) override {
    return fault_ == Fault::kAddOffByOne ? a + b + 1 : a + b;
  }
  double norm(double x, double y) override;
  XBool flip(XBool b) override { return XBool(!static_cast<bool>(b)); }
  void post(HdStringView event) override;
  HdString blob(HdBytesView data) override {
    return HdString(data.rbegin(), data.rend());
  }

  struct PostTally {
    uint64_t delivered = 0;
    uint64_t out_of_order = 0;
    uint64_t bad_checksum = 0;  // includes events that do not parse

    // Posts that arrived but must count as failed operations.
    uint64_t Bad() const { return out_of_order + bad_checksum; }
  };
  PostTally Tally() const;
  // Blocks until `n` posts were delivered; false on timeout.
  bool WaitForDelivered(uint64_t n, int timeout_ms) const;

  // The event a caller sends: "<caller>:<seq>:<checksum hex>:<text>".
  static std::string FormatPost(int caller, uint64_t seq,
                                std::string_view text);
  // FNV-1a, 64 bit.
  static uint64_t Checksum(std::string_view text);

 private:
  void Check(std::string_view event);  // mutex_ held

  const Fault fault_;
  mutable std::mutex mutex_;
  mutable std::condition_variable delivered_cv_;
  std::vector<uint64_t> next_seq_;  // per caller
  PostTally tally_;
  std::string held_;           // kReorderPosts: caller 0's first post
  bool reorder_done_ = false;  // kReorderPosts: the swap happened
};

}  // namespace orbbench
