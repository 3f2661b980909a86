#include "core/thread_budget.hpp"

#include <atomic>
#include <cstdlib>
#include <thread>

namespace hycim::core {

namespace {

std::atomic<unsigned> g_budget{0};

unsigned env_budget() {
  // Parsed once: the environment is an operator-facing default, not a
  // runtime channel (set_thread_budget is the runtime channel).
  static const unsigned parsed = [] {
    const char* value = std::getenv("HYCIM_THREAD_BUDGET");
    if (value == nullptr) return 0u;
    const long parsed_value = std::strtol(value, nullptr, 10);
    return parsed_value > 0 ? static_cast<unsigned>(parsed_value) : 0u;
  }();
  return parsed;
}

unsigned hardware_budget() {
  // Read once: glibc answers hardware_concurrency() by reading
  // /sys/devices/system/cpu/online (~2 us), and the budget is resolved on
  // every dispatch and every service request.
  static const unsigned cores = [] {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1u : n;  // exotic hosts may report 0
  }();
  return cores;
}

}  // namespace

unsigned thread_budget() {
  unsigned budget = g_budget.load(std::memory_order_relaxed);
  if (budget == 0) budget = env_budget();
  if (budget == 0) budget = hardware_budget();
  return budget;
}

void set_thread_budget(unsigned budget) {
  g_budget.store(budget, std::memory_order_relaxed);
}

unsigned requested_thread_budget() {
  return g_budget.load(std::memory_order_relaxed);
}

}  // namespace hycim::core
