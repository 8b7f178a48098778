#include "metrics/reporter.h"

#include "metrics/json.h"

namespace ermia {
namespace metrics {

Reporter::Reporter(SnapshotFn source, uint64_t interval_ms, std::string path)
    : source_(std::move(source)), interval_ms_(interval_ms) {
  if (!path.empty()) {
    out_ = std::fopen(path.c_str(), "w");
    // Fall back to stderr rather than silently dropping telemetry.
    if (out_ == nullptr) {
      std::fprintf(stderr, "metrics reporter: cannot open %s, using stderr\n",
                   path.c_str());
    }
  }
  last_ = source_();
}

Reporter::~Reporter() {
  if (out_ != nullptr) std::fclose(out_);
}

void Reporter::EmitDelta() {
  const MetricsSnapshot now = source_();
  const MetricsSnapshot delta = now.DeltaSince(last_);
  last_ = now;

  JsonWriter w;
  w.BeginObject();
  w.Field("seq", seq_++);
  w.Field("interval_ms", interval_ms_);
  // Raw snapshot JSON is itself an object; splice it in as a raw value.
  std::string line = w.str();
  line += ",\"delta\":";
  line += delta.ToJson();
  line += "}\n";

  std::FILE* f = out_ != nullptr ? out_ : stderr;
  std::fwrite(line.data(), 1, line.size(), f);
  std::fflush(f);
}

}  // namespace metrics
}  // namespace ermia
