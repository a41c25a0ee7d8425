#include "interval.hh"

#include <algorithm>
#include <string>

#include "util/logging.hh"

namespace lag::core
{

const char *
intervalTypeName(IntervalType type)
{
    switch (type) {
      case IntervalType::Dispatch: return "Dispatch";
      case IntervalType::Listener: return "Listener";
      case IntervalType::Paint:    return "Paint";
      case IntervalType::Native:   return "Native";
      case IntervalType::Async:    return "Async";
      case IntervalType::Gc:       return "GC";
    }
    return "?";
}

IntervalType
fromTraceKind(trace::IntervalKind kind)
{
    switch (kind) {
      case trace::IntervalKind::Listener: return IntervalType::Listener;
      case trace::IntervalKind::Paint:    return IntervalType::Paint;
      case trace::IntervalKind::Native:   return IntervalType::Native;
      case trace::IntervalKind::Async:    return IntervalType::Async;
    }
    lag_panic("unknown trace interval kind");
}

namespace
{

std::size_t
depthGuarded(const IntervalNode &node, std::size_t depth)
{
    if (depth >= kMaxIntervalDepth) {
        throw trace::TraceError(
            "interval tree exceeds maximum nesting depth (" +
            std::to_string(kMaxIntervalDepth) + ")");
    }
    std::size_t deepest = 0;
    for (const auto &child : node.children)
        deepest = std::max(deepest, depthGuarded(child, depth + 1));
    return deepest + 1;
}

} // namespace

std::size_t
IntervalNode::depth() const
{
    return depthGuarded(*this, 0);
}

} // namespace lag::core
