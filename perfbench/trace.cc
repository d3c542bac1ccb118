#include "trace.h"

#include <cstdio>

namespace perfbench {

int Trace::Begin(const std::string& name, int64_t stmt) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.stmt = stmt >= 0 || s.parent < 0 ? stmt : spans_[s.parent].stmt;
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Trace::End(int index) {
  if (index < 0) return;
  spans_[index].end_ns = NowNs();
  open_.pop_back();  // spans close innermost-first
}

double Trace::Seconds(int index) const {
  if (index < 0) return 0;
  return static_cast<double>(spans_[index].end_ns - spans_[index].start_ns) /
         1e9;
}

std::map<std::string, double> Trace::SelfSeconds() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e9;
  }
  return out;
}

std::vector<double> Trace::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e9);
    }
  }
  return out;
}

std::string Trace::ToJson() const {
  std::string out = "\"spans\": [";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                  "\"end_us\": %.3f, \"parent\": %d, \"stmt\": %lld}",
                  i == 0 ? "" : ",", i, s.name.c_str(),
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns) / 1e3, s.parent,
                  static_cast<long long>(s.stmt));
    out += buf;
  }
  out += "\n],\n\"self_seconds\": {";
  bool first = true;
  for (const auto& [name, secs] : SelfSeconds()) {
    std::snprintf(buf, sizeof(buf), "%s\n  \"%s\": %.9f", first ? "" : ",",
                  name.c_str(), secs);
    out += buf;
    first = false;
  }
  out += "\n}";
  return out;
}

}  // namespace perfbench
