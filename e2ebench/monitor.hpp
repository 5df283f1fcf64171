// The one place the benchmark calls into the verification servers.
//
// Every call into Server, ReportIngest and ParallelServer goes through
// Monitor, so a change to the servers' public surface (for example,
// folding Server into ParallelServer) only has to change this file. The
// controller is not part of the monitor: it is the input whose rules the
// monitor keeps up with, and the benchmark drives rule events through it
// directly.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "veridp/ingest.hpp"
#include "veridp/parallel_server.hpp"
#include "veridp/server.hpp"

namespace e2e {

class Monitor {
 public:
  /// Builds both servers over `controller`'s current rules and syncs
  /// them; on return the parallel server's first snapshot is live. The
  /// controller must outlive the monitor.
  explicit Monitor(veridp::Controller& controller)
      : server_(controller, veridp::Server::Mode::kIncremental,
                veridp::BloomTag::kDefaultBits, space_),
        ingest_(server_, ingest_config()),
        parallel_(controller, parallel_config()) {
    server_.enable_epoch_checking(kSnapshotRing, kGraceWindow);
    parallel_.enable_epoch_checking(kSnapshotRing, kGraceWindow);
    server_.sync();
    parallel_.sync();
  }

  // -- Sequential server behind ReportIngest --------------------------------
  bool offer(const std::vector<std::uint8_t>& datagram) {
    return ingest_.offer(datagram);
  }
  std::size_t process() { return ingest_.process(); }
  [[nodiscard]] veridp::IngestHealth ingest_health() const {
    return ingest_.health();
  }
  /// Most recent failed reports, oldest first (at most kFailureKeep).
  [[nodiscard]] const std::deque<veridp::TagReport>& recent_failures() const {
    return ingest_.recent_failures();
  }
  [[nodiscard]] veridp::LocalizeResult localize(
      const veridp::TagReport& report) const {
    return server_.localize(report);
  }
  /// BDD nodes in the sequential server's arena.
  [[nodiscard]] std::size_t server_bdd_nodes() const {
    return space_.manager().node_count();
  }

  // -- Parallel server -------------------------------------------------------
  void start() { parallel_.start(); }
  void stop() { parallel_.stop(); }
  bool submit(const std::vector<std::uint8_t>& datagram) {
    return parallel_.submit_datagram(datagram);
  }
  void drain() { parallel_.drain(); }
  /// One publisher heartbeat: publishes pending rule events into a fresh
  /// arena and flips the served snapshot.
  void heartbeat() { parallel_.heartbeat(); }
  [[nodiscard]] veridp::ParallelHealth parallel_health() const {
    return parallel_.health();
  }
  void reset_profile() { parallel_.profiler().reset(); }
  [[nodiscard]] const veridp::ScalProfiler& profile() const {
    return parallel_.profiler();
  }
  [[nodiscard]] unsigned workers() const { return parallel_.worker_count(); }
  /// The served snapshot (the stage replays verify against its view).
  [[nodiscard]] std::shared_ptr<const veridp::EpochSnapshot> snapshot() const {
    return parallel_.snapshot();
  }

 private:
  static constexpr unsigned kWorkers = 2;
  /// Large enough that a whole generated pass fits in the lanes: the
  /// parallel throughput is defined with nothing shed.
  static constexpr std::size_t kParallelCapacity = std::size_t{1} << 20;
  /// ReportIngest queue bound; the serve loop processes after every
  /// chunk, so a chunk must fit.
  static constexpr std::size_t kIngestCapacity = std::size_t{1} << 14;
  /// Failed reports both servers retain; the serve loop localizes each
  /// pass's failures, so a pass's worth must fit.
  static constexpr std::size_t kFailureKeep = std::size_t{1} << 14;
  static constexpr std::size_t kSnapshotRing = 4;
  static constexpr std::uint32_t kGraceWindow = 64;

  static veridp::IngestConfig ingest_config() {
    veridp::IngestConfig c;
    c.capacity = kIngestCapacity;
    c.high_watermark = kIngestCapacity - 1;
    c.failure_keep = kFailureKeep;
    return c;
  }
  static veridp::ParallelConfig parallel_config() {
    veridp::ParallelConfig c;
    c.workers = kWorkers;
    c.queue_capacity = kParallelCapacity;
    c.high_watermark = kParallelCapacity;
    c.failure_keep = kFailureKeep;
    return c;
  }

  veridp::HeaderSpace space_;
  veridp::Server server_;
  veridp::ReportIngest ingest_;
  veridp::ParallelServer parallel_;
};

}  // namespace e2e
