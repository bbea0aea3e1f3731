#include "serve/telemetry_service.hpp"

#include <chrono>
#include <string>

#include "common/format.hpp"
#include "serve/dashboard.hpp"

namespace rfid::serve {

TelemetryService::TelemetryService(obs::StreamingAggregator& aggregator)
    : TelemetryService(aggregator, Config{}) {}

TelemetryService::TelemetryService(obs::StreamingAggregator& aggregator,
                                   Config config)
    : aggregator_(aggregator),
      config_(config),
      start_(std::chrono::steady_clock::now()) {}

void TelemetryService::install(HttpServer& server) {
  server.route("/", [](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "text/html; charset=utf-8";
    response.body = std::string(dashboard_html());
    return response;
  });
  server.route("/healthz",
               [this](const HttpRequest&) { return healthz(); });
  server.route("/metrics.json",
               [this](const HttpRequest&) { return metrics_json(); });
  server.route_stream("/events", [this](const HttpRequest&,
                                        StreamWriter& writer) {
    events(writer);
  });
}

HttpResponse TelemetryService::healthz() const {
  const auto uptime = std::chrono::steady_clock::now() - start_;
  const double uptime_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(uptime)
          .count();
  // The serving layer is the one place the repo reads wall time: a
  // dashboard or curl-based probe wants a real timestamp to correlate
  // with its own logs, and nothing deterministic consumes this value.
  // rfidlint: allow(wall-clock) — /healthz reports real time to external probes; never feeds the simulation
  const auto wall = std::chrono::system_clock::now().time_since_epoch();
  const auto wall_unix_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(wall).count();

  // Per-reader supervisor verdicts from the latest snapshot: a probe can
  // alert on a down reader without parsing the full /metrics.json. Overall
  // status degrades as soon as any reader is not healthy.
  const auto snapshot = aggregator_.latest();
  std::string health = "[";
  bool all_healthy = true;
  if (snapshot != nullptr) {
    for (std::size_t r = 0; r < snapshot->readers.size(); ++r) {
      const obs::ReaderHealth reader_health = snapshot->readers[r].health;
      if (reader_health != obs::ReaderHealth::kHealthy) all_healthy = false;
      health += (r == 0 ? "\"" : ",\"");
      health += obs::to_string(reader_health);
      health += '"';
    }
  }
  health += ']';

  HttpResponse response;
  response.body = std::string(R"({"status":")") +
                  (all_healthy ? "ok" : "degraded") + R"(","uptime_s":)" +
                  format_double(uptime_s, 17) + R"(,"wall_unix_ms":)" +
                  std::to_string(wall_unix_ms) + R"(,"readers":)" +
                  std::to_string(aggregator_.reader_count()) +
                  R"(,"reader_health":)" + health + R"(,"snapshots":)" +
                  std::to_string(snapshot ? snapshot->sequence : 0) + "}";
  return response;
}

HttpResponse TelemetryService::metrics_json() const {
  const auto snapshot = aggregator_.latest();
  HttpResponse response;
  if (snapshot == nullptr) {
    response.status = 503;
    response.body = R"({"error":"no snapshot published yet"})";
    return response;
  }
  obs::append_json(response.body, *snapshot);
  return response;
}

void TelemetryService::events(StreamWriter& writer) const {
  const auto subscription = aggregator_.subscribe(config_.sse_queue_capacity);
  std::uint64_t reported_drops = 0;
  unsigned idle_waits = 0;

  // Every frame is built in this one buffer, so a steady stream reuses its
  // capacity.
  std::string frame;
  const auto snapshot_frame = [&frame](const obs::MetricsSnapshot& snapshot) {
    frame = "event: snapshot\ndata: ";
    obs::append_json(frame, snapshot);
    frame += "\n\n";
  };

  // Late joiners get the current state immediately instead of waiting a
  // full publish interval for their first frame.
  if (const auto latest = aggregator_.latest(); latest != nullptr) {
    snapshot_frame(*latest);
    writer.write(frame);
  }

  while (writer.alive()) {
    auto item = subscription->wait(config_.sse_wait_ms);
    if (!item.has_value()) {
      if (subscription->closed()) break;  // daemon shut the stream down
      if (++idle_waits >= config_.keepalive_every_waits) {
        idle_waits = 0;
        if (!writer.write(": keepalive\n\n")) break;
      }
      continue;
    }
    idle_waits = 0;

    if (item->type == obs::StreamSubscription::Item::Type::kSnapshot) {
      snapshot_frame(*item->snapshot);
    } else {
      frame = "event: ";
      frame += obs::to_string(item->event.kind);
      frame += "\ndata: ";
      obs::append_json(frame, item->event);
      frame += "\n\n";
    }
    if (!writer.write(frame)) break;

    // Tell the client its own queue overflowed (drop-oldest policy): the
    // stream stays live under backpressure but is no longer gap-free.
    if (const std::uint64_t drops = subscription->dropped();
        drops != reported_drops) {
      reported_drops = drops;
      frame = "event: drops\ndata: {\"dropped\":";
      append_int(frame, drops);
      frame += "}\n\n";
      if (!writer.write(frame)) break;
    }
  }
  aggregator_.unsubscribe(subscription);
}

}  // namespace rfid::serve
