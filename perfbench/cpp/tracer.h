// Spans recorded by the benchmark around its calls into each layer.
//
// A span has a name ("<layer>.<what>"), start and end (steady-clock ns),
// its parent span and a trace id shared by the spans of one request (a
// user's acquire, sync wait and first boosted verdict). Spans stay in
// memory and are written once, at exit. Thread-safe: the netio thread
// records sync applies while the producer records ingests.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

int64_t now_ns();

class Tracer {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  struct Span {
    uint32_t name = 0;
    uint32_t parent = kNoParent;
    uint64_t trace_id = 0;
    int64_t start = 0;
    int64_t end = 0;
  };

  /// Record a finished span; returns its id (usable as a parent).
  uint32_t add(const char* name, uint32_t parent, uint64_t trace_id,
               int64_t start, int64_t end);
  /// Open a span now; close() stamps its end.
  uint32_t open(const char* name, uint32_t parent = kNoParent,
                uint64_t trace_id = 0);
  void close(uint32_t id);

  /// Durations (ns) of every span with this name.
  std::vector<int64_t> durations(const std::string& name) const;

  /// Self time per layer: each span's duration minus the part of it its
  /// children cover, summed by the layer prefix of the name.
  std::map<std::string, double> self_ms_by_layer() const;

  size_t size() const;
  /// Chrome trace-event JSON (loadable in Perfetto), plus the per-layer
  /// self-time table.
  bool write(const std::string& path) const;

 private:
  uint32_t intern(const char* name);

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t> name_ids_;
};

}  // namespace perfbench
