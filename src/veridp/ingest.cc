#include "veridp/ingest.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "dataplane/wire.hpp"

namespace veridp {

namespace {

void require(bool ok, const char* what) {
  if (!ok)
    throw std::invalid_argument(std::string("IngestConfig: ") + what);
}

}  // namespace

void IngestConfig::validate() const {
  require(capacity > 0, "capacity must be positive");
  require(high_watermark < capacity,
          "high_watermark must be below capacity (shedding must engage "
          "before the hard bound)");
  require(shed_modulus != 0, "shed_modulus must be non-zero");
}

ReportIngest::ReportIngest(Server& server, IngestConfig cfg)
    : server_(&server),
      cfg_(cfg),
      admission_(cfg.capacity, cfg.high_watermark, cfg.shed_modulus),
      seqs_(cfg.dedup_window) {
  cfg_.validate();
}

bool ReportIngest::admit(const TagReport& report) {
  if (!seqs_.note(report.outport.sw, report.seq)) {
    ++health_.deduped;
    return false;
  }
  if (!admission_.admits(queue_.size(), report.seq)) {
    ++health_.shed;
    return false;
  }
  return true;
}

bool ReportIngest::offer(const std::vector<std::uint8_t>& datagram) {
  ++health_.received;
  auto report = wire::decode_report(datagram);
  if (!report) {
    ++health_.quarantined;
    keep_recent(quarantine_, datagram, kQuarantineKeep);
    return false;
  }
  if (!admit(*report)) return false;
  queue_.push(*report);
  return true;
}

bool ReportIngest::offer_report(const TagReport& report) {
  ++health_.received;
  if (!admit(report)) return false;
  queue_.push(report);
  return true;
}

std::size_t ReportIngest::process(std::size_t max) {
  constexpr std::size_t kBatch = autotuned_batch_size();
  verdicts_.resize(kBatch);
  std::size_t head = 0;  // verified prefix of the queue
  while (head < max && head < queue_.size()) {
    const std::size_t chunk =
        std::min({kBatch, max - head, queue_.size() - head});
    server_->verify_batch(queue_, head, chunk, verdicts_.data());
    for (std::size_t k = 0; k < chunk; ++k) {
      // The TagReport is only reassembled for the cold consumers (sink,
      // failure retention), never for a plain pass.
      const Verdict& v = verdicts_[k];
      if (verdict_sink_) verdict_sink_(queue_.report(head + k), v);
      if (totals_.add(v))
        keep_recent(failures_, queue_.report(head + k), cfg_.failure_keep);
    }
    head += chunk;
  }
  queue_.consume_prefix(head);
  return head;
}

IngestHealth ReportIngest::health() const {
  IngestHealth h = health_;
  h.passed = totals_.passed;
  h.failed = totals_.failed;
  h.stale = totals_.stale;
  h.in_queue = queue_.size();
  h.regime = admission_.regime();
  h.regime_transitions = admission_.transitions();
  h.lost_estimate = seqs_.lost_estimate();
  return h;
}

}  // namespace veridp
