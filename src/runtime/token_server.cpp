#include "runtime/token_server.hpp"

#include <algorithm>
#include <cassert>

namespace ks::runtime {

TokenServer::TokenServer(TokenServerConfig config)
    : config_(config), epoch_(Clock::now()) {}

TokenServer::~TokenServer() { Shutdown(); }

Time TokenServer::NowTicks() const {
  return std::chrono::duration_cast<Duration>(Clock::now() - epoch_);
}

void TokenServer::RegisterClient(const std::string& id, double gpu_request,
                                 double gpu_limit) {
  std::lock_guard<std::mutex> lock(mutex_);
  Client client{Duration{config_.usage_window.count()}};
  client.request = gpu_request;
  client.limit = gpu_limit;
  clients_.emplace(id, std::move(client));
}

void TokenServer::UnregisterClient(const std::string& id) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (holder_ == id) {
      clients_.at(id).usage.Stop(NowTicks());
      holder_.reset();
    }
    clients_.erase(id);
  }
  cv_.notify_all();
}

std::optional<std::string> TokenServer::PickNextLocked() {
  const Time now = NowTicks();
  const std::string* pick = nullptr;
  double best_deficit = 0.0;
  double best_usage = 0.0;
  std::uint64_t best_seq = 0;
  bool pick_by_deficit = false;

  for (auto& [id, c] : clients_) {
    if (!c.waiting) continue;
    const double usage = c.usage.Usage(now);
    if (usage >= c.limit) continue;  // step 1: filter at gpu_limit
    const double deficit = c.request - usage;
    if (deficit > 0.0) {
      // Step 2: farthest below its guaranteed minimum wins.
      if (!pick_by_deficit || deficit > best_deficit ||
          (deficit == best_deficit && c.enqueue_seq < best_seq)) {
        pick = &id;
        best_deficit = deficit;
        best_seq = c.enqueue_seq;
        pick_by_deficit = true;
      }
    } else if (!pick_by_deficit) {
      // Step 3: lowest usage among the satisfied.
      if (pick == nullptr || usage < best_usage ||
          (usage == best_usage && c.enqueue_seq < best_seq)) {
        pick = &id;
        best_usage = usage;
        best_seq = c.enqueue_seq;
      }
    }
  }
  if (pick == nullptr) return std::nullopt;
  return *pick;
}

bool TokenServer::Acquire(const std::string& id) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = clients_.find(id);
  if (it == clients_.end() || shutdown_) return false;
  if (holder_ == id) return true;

  it->second.waiting = true;
  it->second.enqueue_seq = next_seq_++;

  for (;;) {
    if (shutdown_) return false;
    it = clients_.find(id);
    if (it == clients_.end()) return false;  // unregistered while waiting

    if (!holder_.has_value()) {
      // Token free: the policy decides who goes; only the chosen waiter
      // may take it (others keep waiting).
      auto next = PickNextLocked();
      if (next.has_value() && *next == id) {
        it->second.waiting = false;
        holder_ = id;
        holder_deadline_ = Clock::now() + config_.quota;
        it->second.usage.Start(NowTicks());
        ++grants_;
        return true;
      }
      if (next.has_value()) {
        // Someone else should run; poke them.
        cv_.notify_all();
      }
    }
    // Deadline-aware parking (the thread-world analog of the simulated
    // backend's quota-expiry event): while the token is held nothing can
    // change before the holder's quota deadline except a Release — and that
    // notifies — so sleep straight through to the deadline instead of
    // polling. The 2 ms floor doubles as the free-token poll (so
    // limit-throttled clients re-qualify as their window slides) and as
    // the backstop against a holder overrunning its expired quota.
    const auto backstop = Clock::now() + std::chrono::milliseconds(2);
    cv_.wait_until(lock, holder_.has_value()
                             ? std::max(holder_deadline_, backstop)
                             : backstop);
  }
}

bool TokenServer::Valid(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shutdown_) return false;
  return holder_ == id && Clock::now() < holder_deadline_;
}

void TokenServer::Release(const std::string& id) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (holder_ != id) return;
    auto it = clients_.find(id);
    if (it != clients_.end()) it->second.usage.Stop(NowTicks());
    holder_.reset();
  }
  cv_.notify_all();
}

double TokenServer::UsageOf(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = clients_.find(id);
  if (it == clients_.end()) return 0.0;
  return it->second.usage.Usage(NowTicks());
}

std::uint64_t TokenServer::grants() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return grants_;
}

std::vector<TokenServer::ClientView> TokenServer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Time now = NowTicks();
  std::vector<ClientView> out;
  out.reserve(clients_.size());
  for (const auto& [id, c] : clients_) {
    ClientView view;
    view.id = id;
    view.request = c.request;
    view.limit = c.limit;
    view.usage = c.usage.Usage(now);
    view.holding = holder_ == id;
    view.waiting = c.waiting;
    out.push_back(std::move(view));
  }
  return out;
}

void TokenServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return;
    shutdown_ = true;
    // Revoke the outstanding token so the holder's usage accounting closes
    // and Valid() turns false immediately — a dead daemon enforces nothing
    // and grants nothing.
    if (holder_.has_value()) {
      auto it = clients_.find(*holder_);
      if (it != clients_.end()) it->second.usage.Stop(NowTicks());
      holder_.reset();
    }
  }
  cv_.notify_all();
}

bool TokenServer::is_shutdown() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shutdown_;
}

}  // namespace ks::runtime
