#include "tracer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t Tracer::intern(const char* name) {
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(name, id);
  return id;
}

uint32_t Tracer::add(const char* name, uint32_t parent, uint64_t trace_id,
                     int64_t start, int64_t end) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{intern(name), parent, trace_id, start, end});
  return static_cast<uint32_t>(spans_.size() - 1);
}

uint32_t Tracer::open(const char* name, uint32_t parent, uint64_t trace_id) {
  const int64_t t = now_ns();
  return add(name, parent, trace_id, t, t);
}

void Tracer::close(uint32_t id) {
  const int64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[id].end = t;
}

std::vector<int64_t> Tracer::durations(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int64_t> out;
  const auto it = name_ids_.find(name);
  if (it == name_ids_.end()) return out;
  for (const Span& s : spans_) {
    if (s.name == it->second) out.push_back(s.end - s.start);
  }
  return out;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Children per parent, so each span's covered time is the union of
  // its children's intervals clipped to the span.
  std::vector<std::vector<uint32_t>> children(spans_.size());
  for (uint32_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != kNoParent) children[spans_[i].parent].push_back(i);
  }
  std::map<std::string, double> out;
  std::vector<std::pair<int64_t, int64_t>> cover;
  for (uint32_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    cover.clear();
    for (const uint32_t c : children[i]) {
      const int64_t a = std::max(spans_[c].start, s.start);
      const int64_t b = std::min(spans_[c].end, s.end);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t reach = s.start;
    for (const auto& [a, b] : cover) {
      const int64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    const std::string& name = names_[s.name];
    const std::string layer = name.substr(0, name.find('.'));
    out[layer] += static_cast<double>(s.end - s.start - covered) / 1e6;
  }
  return out;
}

size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::write(const std::string& path) const {
  const auto self = self_ms_by_layer();
  const std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start;
  std::fprintf(f, "{\"selfMsByLayer\":{");
  bool first = true;
  for (const auto& [layer, ms] : self) {
    std::fprintf(f, "%s\"%s\":%.6f", first ? "" : ",", layer.c_str(), ms);
    first = false;
  }
  std::fprintf(f, "},\n\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%lld}}\n",
                 i == 0 ? "" : ",", names_[s.name].c_str(),
                 static_cast<unsigned long long>(s.trace_id),
                 static_cast<double>(s.start - origin) / 1e3,
                 static_cast<double>(s.end - s.start) / 1e3, i,
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
