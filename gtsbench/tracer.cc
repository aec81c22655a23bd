#include "tracer.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <numeric>

namespace gtsbench {

double Tracer::MicrosSinceEpoch(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

int Tracer::ThreadIndex() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

int Tracer::Open(std::string_view name) {
  Span span;
  span.name = std::string(name);
  span.op = op_;
  span.tid = ThreadIndex();
  span.start_us = MicrosSinceEpoch(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::Close(int handle) {
  const double end = MicrosSinceEpoch(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[handle].end_us = end;
}

void Tracer::AddEnded(std::string_view name, Clock::time_point end,
                      double seconds) {
  if (!enabled()) return;
  Span span;
  span.name = std::string(name);
  span.op = op_;
  span.tid = ThreadIndex();
  span.end_us = MicrosSinceEpoch(end);
  span.start_us = span.end_us - seconds * 1e6;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

double Tracer::ResolveParents() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> order(spans_.size());
  std::iota(order.begin(), order.end(), 0);
  // Parents sort before their children: by thread, then start, then the
  // longer span first.
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const Span& x = spans_[a];
    const Span& y = spans_[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    return x.end_us > y.end_us;
  });
  double max_clip_us = 0.0;
  std::vector<int> stack;
  int tid = -1;
  for (int index : order) {
    Span& span = spans_[index];
    if (span.tid != tid) {
      stack.clear();
      tid = span.tid;
    }
    // Spans on one thread come from nested scopes, so a span that starts
    // inside the top of the stack is its child.
    while (!stack.empty() && span.start_us >= spans_[stack.back()].end_us) {
      stack.pop_back();
    }
    span.parent = stack.empty() ? -1 : stack.back();
    if (span.parent >= 0 && span.end_us > spans_[span.parent].end_us) {
      max_clip_us =
          std::max(max_clip_us, span.end_us - spans_[span.parent].end_us);
      span.end_us = spans_[span.parent].end_us;
    }
    stack.push_back(index);
  }
  return max_clip_us;
}

std::map<std::string, double> Tracer::SelfMs(int64_t min_op) const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_us - spans_[i].start_us;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) self[span.parent] -= span.end_us - span.start_us;
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].op >= min_op) out[spans_[i].name] += self[i] / 1e3;
  }
  return out;
}

namespace {

std::string JsonEscape(const std::string& in) {
  std::string out;
  for (char c : in) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

gts::Status Tracer::WriteChromeTrace(
    const std::string& path,
    const std::map<std::string, std::string>& metadata) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return gts::Status::IOError("cannot write " + path);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"metadata\":{");
  bool first = true;
  for (const auto& [key, value] : metadata) {
    std::fprintf(f, "%s\"%s\":\"%s\"", first ? "" : ",",
                 JsonEscape(key).c_str(), JsonEscape(value).c_str());
    first = false;
  }
  std::fprintf(f, "},\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                 "\"args\":{\"span\":%zu,\"parent\":%d,\"op\":%lld}}",
                 i == 0 ? "" : ",\n", JsonEscape(s.name).c_str(),
                 JsonEscape(layer).c_str(), s.start_us,
                 s.end_us - s.start_us, s.tid, i, s.parent,
                 static_cast<long long>(s.op));
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) return gts::Status::IOError("cannot close " + path);
  return gts::Status::OK();
}

}  // namespace gtsbench
