#include "transport/udp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <memory>

#include "base/expect.hpp"

namespace bneck::transport {

namespace {

sockaddr_in to_sockaddr(const Endpoint& e) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(e.addr);
  sa.sin_port = htons(e.port);
  return sa;
}

Endpoint from_sockaddr(const sockaddr_in& sa) {
  Endpoint e;
  e.addr = ntohl(sa.sin_addr.s_addr);
  e.port = ntohs(sa.sin_port);
  return e;
}

int open_udp_socket() {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          IPPROTO_UDP);
  BNECK_EXPECT(fd >= 0, "socket(AF_INET, SOCK_DGRAM) failed");
  return fd;
}

TimeNs monotonic_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<TimeNs>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

Endpoint Endpoint::loopback(std::uint16_t port) {
  return Endpoint{INADDR_LOOPBACK, port};
}

std::string Endpoint::to_string() const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u:%u", (addr >> 24) & 0xff,
                (addr >> 16) & 0xff, (addr >> 8) & 0xff, addr & 0xff, port);
  return buf;
}

UdpSocket::UdpSocket() : fd_(open_udp_socket()) {}

UdpSocket::UdpSocket(std::uint16_t port) : fd_(open_udp_socket()) {
  const sockaddr_in sa = to_sockaddr(Endpoint::loopback(port));
  const int rc =
      ::bind(fd_, reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
  BNECK_EXPECT(rc == 0, "bind(127.0.0.1) failed");
}

UdpSocket::~UdpSocket() { close(); }

void UdpSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Endpoint UdpSocket::local_endpoint() const {
  sockaddr_in sa{};
  socklen_t len = sizeof sa;
  const int rc = ::getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len);
  BNECK_EXPECT(rc == 0, "getsockname failed");
  return from_sockaddr(sa);
}

bool UdpSocket::send_to(const Endpoint& to,
                        std::span<const std::uint8_t> bytes) {
  const sockaddr_in sa = to_sockaddr(to);
  for (;;) {
    const auto n =
        ::sendto(fd_, bytes.data(), bytes.size(), 0,
                 reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
    if (n >= 0) return n == static_cast<std::ptrdiff_t>(bytes.size());
    if (errno == EINTR) continue;
    // EAGAIN (full buffer) and ECONNREFUSED (queued ICMP from a peer
    // that went away) are wire loss, not process errors.
    return false;
  }
}

std::ptrdiff_t UdpSocket::recv_from(std::span<std::uint8_t> buf,
                                    Endpoint& from) {
  for (;;) {
    sockaddr_in sa{};
    socklen_t len = sizeof sa;
    const auto n = ::recvfrom(fd_, buf.data(), buf.size(), 0,
                              reinterpret_cast<sockaddr*>(&sa), &len);
    if (n >= 0) {
      from = from_sockaddr(sa);
      return n;
    }
    if (errno == EINTR) continue;
    // A queued ICMP error consumes one recvfrom; retry for real data
    // (the kernel error queue is finite, so this terminates).
    if (errno == ECONNREFUSED) continue;
    return -1;  // EAGAIN and friends: nothing queued
  }
}

bool UdpSocket::wait_readable(int timeout_ms) {
  const TimeNs deadline =
      timeout_ms < 0 ? kTimeNever
                     : monotonic_now() + milliseconds(timeout_ms);
  pollfd pfd{fd_, POLLIN, 0};
  for (;;) {
    int remaining = -1;
    if (deadline != kTimeNever) {
      const TimeNs left = deadline - monotonic_now();
      if (left <= 0) return false;
      remaining = static_cast<int>((left + 999'999) / 1'000'000);
    }
    const int rc = ::poll(&pfd, 1, remaining);
    if (rc > 0) return (pfd.revents & POLLIN) != 0;
    if (rc == 0) return false;
    if (errno != EINTR) return false;
    // EINTR: re-derive the remaining budget from the monotonic
    // deadline instead of restarting the full timeout.
  }
}

// Per-transport batch scratch.  Each receive slot is one byte longer
// than the largest legal datagram — a lone wire::kMaxFrameBytes frame,
// longer than any coalesced one — so a longer datagram fills its slot
// and is rejected by its length, and every datagram decodes in place.
// The slots live in one anonymous mapping: a page becomes resident only
// when a datagram reaches it, so a batch of coalesced datagrams touches
// one page per slot, and only a long Join more.
struct UdpTransport::Io {
  static constexpr std::size_t kSlot = wire::kMaxFrameBytes + 1;
  static_assert(kSlot > kDatagramBytes);

  std::uint8_t* rx_bytes = static_cast<std::uint8_t*>(
      ::mmap(nullptr, kBatch * kSlot, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0));
  std::array<mmsghdr, kBatch> rx{};
  std::array<iovec, kBatch> rx_iov{};
  std::array<sockaddr_in, kBatch> rx_addr{};
  std::array<mmsghdr, kBatch> tx{};
  std::array<iovec, kBatch> tx_iov{};
  std::array<sockaddr_in, kBatch> tx_addr{};

  Io() {
    BNECK_EXPECT(rx_bytes != MAP_FAILED, "mmap of receive buffers failed");
    for (std::size_t i = 0; i < kBatch; ++i) {
      rx_iov[i] = {rx_bytes + i * kSlot, kSlot};
      rx[i].msg_hdr.msg_iov = &rx_iov[i];
      rx[i].msg_hdr.msg_iovlen = 1;
      rx[i].msg_hdr.msg_name = &rx_addr[i];
      rx[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
      tx[i].msg_hdr.msg_iov = &tx_iov[i];
      tx[i].msg_hdr.msg_iovlen = 1;
      tx[i].msg_hdr.msg_name = &tx_addr[i];
      tx[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
    }
  }

  ~Io() { ::munmap(rx_bytes, kBatch * kSlot); }
  Io(const Io&) = delete;
  Io& operator=(const Io&) = delete;

  /// The bytes of received datagram `i`.
  [[nodiscard]] std::span<const std::uint8_t> datagram(std::size_t i) const {
    return {rx_bytes + i * kSlot, rx[i].msg_len};
  }
};

UdpTransport::UdpTransport(TransportSink& sink,
                           const ReliableConfig& reliability,
                           std::uint16_t port)
    : socket_(port),
      io_(std::make_unique<Io>()),
      sink_(sink),
      reliable_cfg_(reliability) {}

UdpTransport::~UdpTransport() = default;

TimeNs UdpTransport::now() const { return monotonic_now(); }

UdpTransport::FrameChannel* UdpTransport::channel_for(
    const Endpoint& ep) {
  const auto it = channels_.find(ep);
  if (it != channels_.end()) return &it->second;
  if (channels_.size() >= kMaxPeers) {
    ++too_many_peers_;
    return nullptr;
  }
  ReliableConfig cfg = reliable_cfg_;
  cfg.seed = reliable_cfg_.seed ^ EndpointHash{}(ep);  // decorrelate jitter
  const auto [pos, inserted] = channels_.try_emplace(
      ep, cfg,
      // A refused datagram is wire loss; the timers repair it.
      [this, ep](std::uint64_t, const std::vector<std::uint8_t>& frame) {
        egress(ep, frame);
      });
  return &pos->second;
}

void UdpTransport::egress(const Endpoint& to,
                          std::span<const std::uint8_t> bytes) {
  if (fault_ != nullptr) {
    fault_->process(now(), to, bytes,
                    [this](const Endpoint& t,
                           std::span<const std::uint8_t> b) {
                      enqueue(t, b);
                    });
    return;
  }
  enqueue(to, bytes);
}

void UdpTransport::enqueue(const Endpoint& to,
                           std::span<const std::uint8_t> bytes) {
  // Only the last queued datagram takes more frames, so each peer's
  // frames leave in the order they were queued.
  if (tx_.empty() || tx_.back().to != to ||
      tx_.back().size + bytes.size() > kDatagramBytes) {
    if (tx_.size() == kBatch) flush();  // kBatch closed datagrams wait
    const std::size_t offset = tx_bytes_.size();
    tx_bytes_.resize(offset + std::max(bytes.size(), kDatagramBytes));
    tx_.push_back(Queued{to, offset, 0, 0});
  }
  Queued& d = tx_.back();
  std::memcpy(tx_bytes_.data() + d.offset + d.size, bytes.data(),
              bytes.size());
  d.size += bytes.size();
  ++d.frames;
}

void UdpTransport::flush() {
  for (std::size_t first = 0; first < tx_.size();) {
    const std::size_t n = std::min(kBatch, tx_.size() - first);
    for (std::size_t i = 0; i < n; ++i) {
      const Queued& q = tx_[first + i];
      io_->tx_addr[i] = to_sockaddr(q.to);
      io_->tx_iov[i] = {tx_bytes_.data() + q.offset, q.size};
    }
    for (std::size_t done = 0; done < n;) {
      const int rc = ::sendmmsg(socket_.fd(), &io_->tx[done],
                                static_cast<unsigned>(n - done), 0);
      if (rc > 0) {
        datagrams_sent_ += static_cast<std::uint64_t>(rc);
        for (int k = 0; k < rc; ++k) {
          frames_sent_ += tx_[first + done++].frames;
        }
        continue;
      }
      if (rc < 0 && errno == EINTR) continue;
      // The kernel refused datagram `done` (EAGAIN on a full buffer, or
      // ECONNREFUSED from a peer that went away): wire loss, skip it.
      ++done;
    }
    first += n;
  }
  tx_.clear();
  tx_bytes_.clear();
}

void UdpTransport::send(LinkId physical, const core::Packet& p) {
  const Endpoint* to = &peer_;
  if (peer_resolver_) {
    to = peer_resolver_(p);
    if (to == nullptr) {
      ++unroutable_;
      return;
    }
  }
  encode_buf_.clear();
  if (p.type == core::PacketType::Join && join_path_) {
    wire::encode_packet(p, join_path_(p.session), encode_buf_);
  } else {
    wire::encode_packet(p, encode_buf_);
  }
  sink_.on_wire(p, physical);
  FrameChannel* ch = channel_for(*to);
  if (ch != nullptr) {
    std::vector<std::uint8_t> frame;
    wire::encode_data(ch->next_seq(), encode_buf_, frame);
    ch->send(std::move(frame), now());
  }
  if (!pumping_) flush();
}

void UdpTransport::local(const core::Packet& p) {
  pending_.push_back(p);
}

bool UdpTransport::send_frame(const Endpoint& to,
                              std::span<const std::uint8_t> bytes) {
  egress(to, bytes);
  if (!pumping_) flush();
  return true;
}

void UdpTransport::drain_local() {
  while (!pending_.empty()) {
    const core::Packet p = pending_.front();
    pending_.pop_front();
    sink_.on_packet(p);
  }
}

std::size_t UdpTransport::recv_batch() {
  for (;;) {
    const int n = ::recvmmsg(socket_.fd(), io_->rx.data(),
                             static_cast<unsigned>(kBatch), 0, nullptr);
    if (n >= 0) return static_cast<std::size_t>(n);
    // EINTR, or a queued ICMP error consuming the call: retry for real
    // data (the kernel error queue is finite, so this terminates).
    if (errno == EINTR || errno == ECONNREFUSED) continue;
    return 0;  // EAGAIN and friends: nothing queued
  }
}

std::size_t UdpTransport::drain_socket() {
  std::size_t processed = 0;
  for (;;) {
    const std::size_t n = recv_batch();
    datagrams_received_ += n;
    for (std::size_t i = 0; i < n; ++i) {
      const Endpoint from = from_sockaddr(io_->rx_addr[i]);
      io_->rx[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);  // for reuse
      // Decoded whole before any frame is delivered: a bad frame drops
      // the datagram, and so does a datagram cut short by its slot.
      const std::span<const std::uint8_t> datagram = io_->datagram(i);
      const char* error = datagram.size() > wire::kMaxFrameBytes
                              ? "datagram longer than the longest frame"
                              : wire::decode_datagram(datagram, rx_frames_);
      if (error != nullptr) {
        ++decode_errors_;
        last_decode_error_ = error;
        continue;
      }
      frames_received_ += rx_frames_.size();
      for (wire::Frame& f : rx_frames_) {
        if (on_frame(f, from)) ++processed;
      }
    }
    send_acks();
    // A short batch emptied the socket; later arrivals wait for the
    // next pump.
    if (n < kBatch) return processed;
  }
}

bool UdpTransport::on_frame(wire::Frame& f, const Endpoint& from) {
  if (f.kind == wire::FrameKind::Ack) {
    // Bookkeeping only: advance the sender window of an existing
    // channel.  An ack from a stranger allocates nothing.
    const auto it = channels_.find(from);
    if (it != channels_.end()) it->second.on_ack(f.seq, now());
    return false;
  }
  if (f.kind == wire::FrameKind::Data) {
    FrameChannel* ch = channel_for(from);
    if (ch == nullptr) return false;  // peer table full, counted
    // Every Data arrival — fresh or stale — earns its peer the batch's
    // ack, so a lost ack is repaired by the retransmission it provokes.
    if (std::none_of(ack_due_.begin(), ack_due_.end(),
                     [ch](const auto& d) { return d.second == ch; })) {
      ack_due_.emplace_back(from, ch);
    }
    if (!ch->on_data(f.seq)) {
      return false;  // duplicate/out-of-order: channel counted it
    }
    f.kind = wire::FrameKind::Packet;  // deliver the inner packet
  }
  if (frame_handler_) {
    frame_handler_(f, from);
  } else if (f.kind == wire::FrameKind::Packet) {
    sink_.on_packet(f.packet);
  }
  drain_local();  // handoffs triggered by this frame, FIFO
  return true;
}

void UdpTransport::send_acks() {
  for (const auto& [ep, ch] : ack_due_) {
    ack_buf_.clear();
    wire::encode_ack(ch->expected(), ack_buf_);
    egress(ep, ack_buf_);
    ++acks_sent_;
  }
  ack_due_.clear();
}

std::size_t UdpTransport::service_timers(TimeNs t) {
  std::size_t fired = 0;
  for (auto& [ep, ch] : channels_) fired += ch.poll(t);
  if (fault_ != nullptr) {
    fault_->flush(t, [this](const Endpoint& to,
                            std::span<const std::uint8_t> b) {
      enqueue(to, b);
    });
  }
  return fired;
}

TimeNs UdpTransport::next_timer_deadline() const {
  TimeNs due = kTimeNever;
  for (const auto& [ep, ch] : channels_) {
    due = std::min(due, ch.next_deadline());
  }
  if (fault_ != nullptr) due = std::min(due, fault_->next_due());
  return due;
}

std::size_t UdpTransport::pump(int timeout_ms) {
  // Sends made while pumping only queue; the scope's end flushes them.
  struct Scope {
    UdpTransport& t;
    explicit Scope(UdpTransport& tr) : t(tr) { t.pumping_ = true; }
    ~Scope() {
      t.pumping_ = false;
      t.flush();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
  } scope(*this);
  std::size_t processed = pending_.size();
  drain_local();
  processed += drain_socket();
  service_timers(now());
  if (processed == 0 && timeout_ms > 0) {
    flush();  // nothing waits in the queue while we block
    int wait_ms = timeout_ms;
    const TimeNs due = next_timer_deadline();
    if (due != kTimeNever) {
      const TimeNs left = due - now();
      // Wake for the earliest retransmit/flush deadline, at least 1ms
      // so a hot loop still yields the CPU.
      wait_ms = std::clamp(
          static_cast<int>((left + 999'999) / 1'000'000), 1, timeout_ms);
    }
    if (socket_.wait_readable(wait_ms)) processed += drain_socket();
    service_timers(now());
  }
  return processed;
}

std::uint64_t UdpTransport::retransmissions() const {
  std::uint64_t n = 0;
  for (const auto& [ep, ch] : channels_) n += ch.retransmissions();
  return n;
}

std::uint64_t UdpTransport::duplicates_dropped() const {
  std::uint64_t n = 0;
  for (const auto& [ep, ch] : channels_) n += ch.duplicates_dropped();
  return n;
}

bool UdpTransport::peer_failed() const {
  for (const auto& [ep, ch] : channels_) {
    if (ch.failed()) return true;
  }
  return false;
}

}  // namespace bneck::transport
