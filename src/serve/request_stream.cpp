#include "hbn/serve/request_stream.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace hbn::serve {

namespace {

[[noreturn]] void throwExhausted(std::uint64_t skipped, std::uint64_t count) {
  throw std::runtime_error(
      "skipRequests: stream exhausted after " + std::to_string(skipped) +
      " of " + std::to_string(count) +
      " events (checkpoint does not match this stream)");
}

}  // namespace

void RequestStream::skip(std::uint64_t count) {
  std::vector<RequestEvent> scratch(
      static_cast<std::size_t>(std::min<std::uint64_t>(count, 4096)));
  std::uint64_t skipped = 0;
  while (skipped < count) {
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(count - skipped, scratch.size()));
    const std::size_t got =
        fill(std::span<RequestEvent>(scratch.data(), want));
    if (got == 0) throwExhausted(skipped, count);
    skipped += got;
  }
}

TraceFileStream::TraceFileStream(const std::string& path) : in_(path) {
  if (!in_) {
    throw std::runtime_error("cannot open trace " + path);
  }
  reader_ = std::make_unique<workload::TraceReader>(in_);
}

std::size_t TraceFileStream::fill(std::span<RequestEvent> out) {
  std::size_t n = 0;
  while (n < out.size() && reader_->next(out[n])) ++n;
  return n;
}

std::size_t VectorStream::fill(std::span<RequestEvent> out) {
  const std::size_t n = std::min(out.size(), events_.size() - cursor_);
  std::copy(events_.begin() + static_cast<std::ptrdiff_t>(cursor_),
            events_.begin() + static_cast<std::ptrdiff_t>(cursor_ + n),
            out.begin());
  cursor_ += n;
  return n;
}

void skipRequests(RequestStream& stream, std::uint64_t count) {
  stream.skip(count);
}

namespace {

/// A bounded stream over one seekable workload stream generator.
template <typename Generator>
class GeneratedStream final : public RequestStream {
 public:
  GeneratedStream(Generator generator, std::uint64_t total)
      : generator_(std::move(generator)), remaining_(total) {}

  [[nodiscard]] std::size_t fill(std::span<RequestEvent> out) override {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining_, out.size()));
    generator_.generate(out.first(n));
    remaining_ -= n;
    consumed_ += n;
    return n;
  }

  void skip(std::uint64_t count) override {
    if (count > remaining_) throwExhausted(remaining_, count);
    consumed_ += count;
    remaining_ -= count;
    generator_.seek(consumed_);
  }

 private:
  Generator generator_;
  std::uint64_t remaining_;
  std::uint64_t consumed_ = 0;  ///< events handed out or skipped so far
};

template <typename Generator>
std::unique_ptr<RequestStream> makeStream(const net::Tree& tree,
                                          const workload::StreamParams& params,
                                          std::uint64_t seed,
                                          std::uint64_t total) {
  return std::make_unique<GeneratedStream<Generator>>(
      Generator(tree, params, seed), total);
}

}  // namespace

std::unique_ptr<RequestStream> makeGeneratedStream(
    const std::string& name, const net::Tree& tree,
    const workload::StreamParams& params, std::uint64_t seed,
    std::uint64_t total) {
  if (name == "skewed") {
    return makeStream<workload::SkewedStream>(tree, params, seed, total);
  }
  if (name == "bursty") {
    return makeStream<workload::BurstyStream>(tree, params, seed, total);
  }
  if (name == "diurnal") {
    return makeStream<workload::DiurnalStream>(tree, params, seed, total);
  }
  if (name == "phase-shift") {
    return makeStream<workload::PhaseShiftStream>(tree, params, seed,
                                                    total);
  }
  throw std::invalid_argument(
      "unknown stream '" + name +
      "'; available: skewed bursty diurnal phase-shift");
}

}  // namespace hbn::serve
