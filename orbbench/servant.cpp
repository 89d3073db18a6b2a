#include "servant.h"

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>

HD_DEFINE_TYPE(orbbench::BenchEcho, "IDL:Heidi/BenchEcho:1.0",
               &HdEcho::TypeInfo())

namespace orbbench {

namespace {

template <typename T>
bool ParseNumber(std::string_view text, T& out, int base) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, out, base);
  return ec == std::errc() && ptr == end;
}

}  // namespace

double BenchEcho::norm(double x, double y) { return std::sqrt(x * x + y * y); }

uint64_t BenchEcho::Checksum(std::string_view text) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

std::string BenchEcho::FormatPost(int caller, uint64_t seq,
                                  std::string_view text) {
  char head[64];
  int n = std::snprintf(head, sizeof(head), "%d:%llu:%llx:", caller,
                        static_cast<unsigned long long>(seq),
                        static_cast<unsigned long long>(Checksum(text)));
  std::string event(head, static_cast<size_t>(n));
  event.append(text);
  return event;
}

void BenchEcho::post(HdStringView event) {
  std::lock_guard lock(mutex_);
  if (fault_ == Fault::kReorderPosts && event.rfind("0:", 0) == 0) {
    if (!reorder_done_ && held_.empty()) {
      held_.assign(event);  // keep caller 0's first post back
      return;
    }
    if (!held_.empty()) {
      Check(event);
      Check(held_);
      held_.clear();
      reorder_done_ = true;
      delivered_cv_.notify_all();
      return;
    }
  }
  Check(event);
  delivered_cv_.notify_all();
}

void BenchEcho::Check(std::string_view event) {
  ++tally_.delivered;
  // Parse "<caller>:<seq>:<checksum hex>:<text>".
  auto field = [&event](std::string_view& out) {
    size_t colon = event.find(':');
    if (colon == std::string_view::npos) return false;
    out = event.substr(0, colon);
    event.remove_prefix(colon + 1);
    return true;
  };
  std::string_view caller_s, seq_s, sum_s;
  unsigned caller = 0;
  uint64_t seq = 0;
  uint64_t sum = 0;
  if (!field(caller_s) || !field(seq_s) || !field(sum_s) ||
      !ParseNumber(caller_s, caller, 10) || !ParseNumber(seq_s, seq, 10) ||
      !ParseNumber(sum_s, sum, 16) ||
      caller >= 64 || Checksum(event) != sum) {
    ++tally_.bad_checksum;
    return;
  }
  if (next_seq_.size() <= caller) next_seq_.resize(caller + 1, 0);
  uint64_t& next = next_seq_[caller];
  if (seq != next) ++tally_.out_of_order;
  if (seq + 1 > next) next = seq + 1;
}

BenchEcho::PostTally BenchEcho::Tally() const {
  std::lock_guard lock(mutex_);
  return tally_;
}

bool BenchEcho::WaitForDelivered(uint64_t n, int timeout_ms) const {
  std::unique_lock lock(mutex_);
  return delivered_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                                [&] { return tally_.delivered >= n; });
}

}  // namespace orbbench
