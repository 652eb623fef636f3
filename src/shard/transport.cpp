#include "hbn/shard/transport.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "hbn/serve/error.h"

namespace hbn::shard {
namespace {

/// One direction of a loopback link: a byte queue with its own lock.
struct LoopbackPipe {
  std::mutex mutex;
  std::condition_variable cv;
  std::string buffer;
  std::size_t readPos = 0;
  bool closed = false;
};

class LoopbackChannel final : public ByteChannel {
 public:
  LoopbackChannel(std::shared_ptr<LoopbackPipe> in,
                  std::shared_ptr<LoopbackPipe> out)
      : in_(std::move(in)), out_(std::move(out)) {}

  ~LoopbackChannel() override { LoopbackChannel::close(); }

  void writeAll(const void* data, std::size_t n) override {
    std::lock_guard<std::mutex> lock(out_->mutex);
    if (out_->closed) {
      throw std::runtime_error("loopback: peer closed the channel");
    }
    out_->buffer.append(static_cast<const char*>(data), n);
    out_->cv.notify_one();
  }

  std::ptrdiff_t readSome(void* dst, std::size_t n,
                          double timeoutMs) override {
    std::unique_lock<std::mutex> lock(in_->mutex);
    const auto ready = [this] {
      return in_->readPos < in_->buffer.size() || in_->closed;
    };
    if (timeoutMs > 0.0) {
      if (!in_->cv.wait_for(
              lock, std::chrono::duration<double, std::milli>(timeoutMs),
              ready)) {
        return -1;
      }
    } else {
      in_->cv.wait(lock, ready);
    }
    const std::size_t available = in_->buffer.size() - in_->readPos;
    if (available == 0) return 0;  // closed and drained
    const std::size_t take = std::min(n, available);
    std::memcpy(dst, in_->buffer.data() + in_->readPos, take);
    in_->readPos += take;
    if (in_->readPos == in_->buffer.size()) {
      in_->buffer.clear();
      in_->readPos = 0;
    }
    return static_cast<std::ptrdiff_t>(take);
  }

  void close() noexcept override {
    for (const auto& pipe : {in_, out_}) {
      std::lock_guard<std::mutex> lock(pipe->mutex);
      pipe->closed = true;
      pipe->cv.notify_all();
    }
  }

 private:
  std::shared_ptr<LoopbackPipe> in_;
  std::shared_ptr<LoopbackPipe> out_;
};

class SocketChannel final : public ByteChannel {
 public:
  explicit SocketChannel(int fd) : fd_(fd) {}

  ~SocketChannel() override { SocketChannel::close(); }

  void writeAll(const void* data, std::size_t n) override {
    const char* p = static_cast<const char*>(data);
    while (n > 0) {
      // MSG_NOSIGNAL: a dead peer surfaces as EPIPE here, not SIGPIPE.
      const ssize_t sent = ::send(fd_, p, n, MSG_NOSIGNAL);
      if (sent < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("socket send: ") +
                                 std::strerror(errno));
      }
      p += sent;
      n -= static_cast<std::size_t>(sent);
    }
  }

  std::ptrdiff_t readSome(void* dst, std::size_t n,
                          double timeoutMs) override {
    if (timeoutMs > 0.0) {
      struct pollfd pfd{};
      pfd.fd = fd_;
      pfd.events = POLLIN;
      const int timeout =
          static_cast<int>(std::min(timeoutMs, 2147483000.0)) + 1;
      for (;;) {
        const int r = ::poll(&pfd, 1, timeout);
        if (r < 0) {
          if (errno == EINTR) continue;
          throw std::runtime_error(std::string("socket poll: ") +
                                   std::strerror(errno));
        }
        if (r == 0) return -1;
        break;
      }
    }
    for (;;) {
      const ssize_t got = ::read(fd_, dst, n);
      if (got < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("socket read: ") +
                                 std::strerror(errno));
      }
      return got;
    }
  }

  void close() noexcept override {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_;
};

}  // namespace

std::string FramedTransport::encodeFrame(FrameType type,
                                         std::string_view payload) {
  util::ByteWriter header;
  header.u32(kFrameMagic);
  header.u32(static_cast<std::uint32_t>(type));
  header.u64(payload.size());
  std::string frame = header.take();
  frame.append(payload);
  util::ByteWriter trailer;
  trailer.u64(util::fnv1a(payload));
  frame.append(trailer.take());
  return frame;
}

void FramedTransport::send(FrameType type, std::string_view payload) {
  sendEncoded(encodeFrame(type, payload));
}

void FramedTransport::sendEncoded(std::string_view frame) {
  try {
    channel_->writeAll(frame.data(), frame.size());
  } catch (const std::exception& e) {
    throw serve::Error(serve::Stage::Peer, epoch_, e.what());
  }
  bytesSent_ += frame.size();
}

void FramedTransport::readExact(void* dst, std::size_t n, double timeoutMs,
                                bool atFrameStart) {
  char* p = static_cast<char*>(dst);
  std::size_t done = 0;
  while (done < n) {
    std::ptrdiff_t got = 0;
    try {
      got = channel_->readSome(p + done, n - done, timeoutMs);
    } catch (const std::exception& e) {
      throw serve::Error(serve::Stage::Peer, epoch_, e.what());
    }
    if (got < 0) {
      throw serve::Error(serve::Stage::Peer, epoch_,
                         "peer unresponsive after " +
                             std::to_string(timeoutMs) + " ms");
    }
    if (got == 0) {
      if (atFrameStart && done == 0) {
        throw serve::Error(serve::Stage::Peer, epoch_,
                           "peer closed the connection");
      }
      throw serve::Error(serve::Stage::Frame, epoch_,
                         "truncated frame (connection cut mid-frame)");
    }
    done += static_cast<std::size_t>(got);
  }
}

Frame FramedTransport::recv(double timeoutMs) {
  char header[kFrameHeaderBytes];
  readExact(header, sizeof(header), timeoutMs, /*atFrameStart=*/true);
  util::ByteReader r(std::string_view(header, sizeof(header)));
  const std::uint32_t magic = r.u32();
  const std::uint32_t type = r.u32();
  const std::uint64_t payloadLen = r.u64();
  if (magic != kFrameMagic) {
    throw serve::Error(serve::Stage::Frame, epoch_,
                       "bad frame magic 0x" + [&] {
                         char buf[16];
                         std::snprintf(buf, sizeof(buf), "%08x", magic);
                         return std::string(buf);
                       }());
  }
  if (payloadLen > kMaxFramePayload) {
    throw serve::Error(serve::Stage::Frame, epoch_,
                       "oversized length prefix (" +
                           std::to_string(payloadLen) + " > " +
                           std::to_string(kMaxFramePayload) + ")");
  }
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.payload.resize(static_cast<std::size_t>(payloadLen));
  if (payloadLen > 0) {
    readExact(frame.payload.data(), frame.payload.size(), timeoutMs,
              /*atFrameStart=*/false);
  }
  char trailer[kFrameTrailerBytes];
  readExact(trailer, sizeof(trailer), timeoutMs, /*atFrameStart=*/false);
  util::ByteReader t(std::string_view(trailer, sizeof(trailer)));
  const std::uint64_t checksum = t.u64();
  if (checksum != util::fnv1a(frame.payload)) {
    throw serve::Error(serve::Stage::Frame, epoch_,
                       std::string("checksum mismatch on ") +
                           frameTypeName(frame.type) + " frame");
  }
  bytesReceived_ += kFrameHeaderBytes + payloadLen + kFrameTrailerBytes;
  return frame;
}

std::pair<std::unique_ptr<ByteChannel>, std::unique_ptr<ByteChannel>>
makeLoopbackPair() {
  auto aToB = std::make_shared<LoopbackPipe>();
  auto bToA = std::make_shared<LoopbackPipe>();
  return {std::make_unique<LoopbackChannel>(bToA, aToB),
          std::make_unique<LoopbackChannel>(aToB, bToA)};
}

std::unique_ptr<ByteChannel> makeSocketChannel(int fd) {
  return std::make_unique<SocketChannel>(fd);
}

std::pair<int, int> makeSocketPair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error(std::string("socketpair: ") +
                             std::strerror(errno));
  }
  return {fds[0], fds[1]};
}

}  // namespace hbn::shard
