// Heap-allocation budget of the six §5 routers on the paper's 8×8 regime.
//
// This binary replaces every global operator new/delete form with a
// malloc-backed one that counts allocations while a window is open; the
// window covers exactly one Router::route() call. Each policy router
// must stay within 4·nc + 4·L + 32 allocations per call, under either
// RouteGoal: a handful of
// buffers per communication (its routed path and flow list) and per link,
// plus a constant. Inner loops that build a vector per cell, cut,
// candidate or move blow through that budget within a few communications.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "paper_instances.hpp"
#include "pamr/obs/registry.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/util/assert.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = ((size == 0 ? 1 : size) + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded);
}

void* checked(void* ptr) {
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

}  // namespace

// ------------------------------------------- replaced allocation functions --

void* operator new(std::size_t size) { return checked(counted_alloc(size)); }
void* operator new[](std::size_t size) { return checked(counted_alloc(size)); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return checked(counted_aligned_alloc(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return checked(counted_aligned_alloc(size, align));
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept { std::free(ptr); }
void operator delete[](void* ptr, const std::nothrow_t&) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace pamr {
namespace {

/// Runs `body` with the counting window open; returns the allocations it made.
template <class Body>
std::uint64_t allocations_in(Body&& body) {
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  body();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(AllocBudget, CounterSeesEveryForm) {
  // Direct calls: a new-expression paired with its delete may be elided.
  const std::uint64_t counted = allocations_in([] {
    ::operator delete(::operator new(8));
    ::operator delete[](::operator new[](16));
    ::operator delete(::operator new(8, std::nothrow), std::nothrow);
    ::operator delete(::operator new(64, std::align_val_t{64}), std::align_val_t{64});
    ::operator delete[](::operator new[](64, std::align_val_t{64}, std::nothrow),
                        std::align_val_t{64}, std::nothrow);
  });
  EXPECT_EQ(counted, 5u);
  EXPECT_EQ(allocations_in([] {}), 0u);
}

TEST(AllocBudget, RoutersStayWithinBudgetOnPaperInstances) {
  // Telemetry off: the budget is the routers', not the registry's.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(false);
  for (const paper::Instance& instance : paper::instances()) {
    const std::uint64_t nc = instance.comms.size();
    const auto links = static_cast<std::uint64_t>(instance.mesh.num_links());
    const std::uint64_t budget = 4 * nc + 4 * links + 32;
    for (const RouteGoal goal : {RouteGoal::kRouting, RouteGoal::kVerdict}) {
      const bool verdict = goal == RouteGoal::kVerdict;
      for (const RouterKind kind : all_base_routers()) {
        const auto router = make_router(kind);
        RouteResult result;
        const std::uint64_t counted = allocations_in([&] {
          result = router->route(instance.mesh, instance.comms, instance.model, goal);
        });
        // Only a verdict call may come back without a routing, and only
        // as a failure.
        ASSERT_TRUE(result.routing.has_value() || (verdict && !result.valid));
        std::printf("  %-34s nc=%-4llu %-3s %-7s %6llu allocations (budget %llu)%s\n",
                    instance.label.c_str(), static_cast<unsigned long long>(nc),
                    to_cstring(kind), verdict ? "verdict" : "routing",
                    static_cast<unsigned long long>(counted),
                    static_cast<unsigned long long>(budget),
                    result.routing.has_value() ? "" : ", stopped");
        EXPECT_LE(counted, budget) << instance.label << " " << to_cstring(kind);
      }
    }
  }
  obs::set_enabled(was_enabled);
}

TEST(AllocBudget, RepeatCallsOfXyiAndPrAllocateOnlyTheirRouting) {
  // XYI and PR keep their index buffers in per-thread spares
  // (util/reused.hpp), so once a thread has routed an instance, routing it
  // again allocates only what the call returns: 2·nc + 3 for the Routing
  // (its per-comm and path arrays, a flow list and a link list per
  // communication, and the epilogue's load vector), plus a few small
  // fixed buffers (XYI's LoadCost level tables, each reserved once, and
  // PR's heaviest-first order): at most 2·nc + 6 on these instances.
  // Paranoid builds (PAMR_CHECK_LEVEL=2) add sweeps that allocate their own
  // scratch on every move, so there a repeat call is held to the general
  // budget instead.
  constexpr std::uint64_t kFixed = 6;
  const bool paranoid = compiled_check_level() >= 2;
  const bool was_enabled = obs::enabled();
  obs::set_enabled(false);
  for (const paper::Instance& instance : paper::instances()) {
    const std::uint64_t nc = instance.comms.size();
    for (const RouteGoal goal : {RouteGoal::kRouting, RouteGoal::kVerdict}) {
      for (const RouterKind kind : {RouterKind::kXYI, RouterKind::kPR}) {
        const auto router = make_router(kind);
        (void)router->route(instance.mesh, instance.comms, instance.model, goal);
        const std::uint64_t counted = allocations_in([&] {
          (void)router->route(instance.mesh, instance.comms, instance.model, goal);
        });
        std::printf("  %-34s nc=%-4llu %-3s %-7s %6llu allocations on a repeat call\n",
                    instance.label.c_str(), static_cast<unsigned long long>(nc),
                    to_cstring(kind), goal == RouteGoal::kVerdict ? "verdict" : "routing",
                    static_cast<unsigned long long>(counted));
        const auto links = static_cast<std::uint64_t>(instance.mesh.num_links());
        const std::uint64_t bound = paranoid ? 4 * nc + 4 * links + 32 : 2 * nc + kFixed;
        EXPECT_LE(counted, bound) << instance.label << " " << to_cstring(kind);
      }
    }
  }
  obs::set_enabled(was_enabled);
}

}  // namespace
}  // namespace pamr
