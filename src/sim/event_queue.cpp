#include "sim/event_queue.h"

#include "common/error.h"

namespace soc::sim {

void KeyedEventQueue::push(SimTime time, std::uint64_t key,
                           std::int32_t payload) {
  SOC_CHECK(time >= 0, "event scheduled at negative time");
  heap_.push_back(KeyedEvent{time, key, payload});
  sift_up(heap_.size() - 1);
}

KeyedEvent KeyedEventQueue::pop() {
  SOC_CHECK(!empty(), "pop from empty event queue");
  const KeyedEvent e = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return e;
}

void KeyedEventQueue::sift_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void KeyedEventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t left = 2 * i + 1;
    const std::size_t right = left + 1;
    std::size_t smallest = i;
    if (left < n && earlier(heap_[left], heap_[smallest])) smallest = left;
    if (right < n && earlier(heap_[right], heap_[smallest])) smallest = right;
    if (smallest == i) return;
    std::swap(heap_[i], heap_[smallest]);
    i = smallest;
  }
}

}  // namespace soc::sim
