/**
 * @file
 * Non-owning callable reference, the `function_ref` idiom: two words
 * (object pointer + trampoline), no heap, no virtual dispatch. Used
 * by the parallel layer so that dispatching a loop body never
 * allocates — std::function heap-allocates for capturing lambdas
 * larger than its SBO, which put one malloc/free pair on every
 * parallelFor call site.
 *
 * Lifetime contract: a FunctionRef does NOT extend the life of the
 * callable it refers to. It is only safe to call while the referred
 * callable is alive — the intended use is as a by-value parameter
 * invoked during the call it was passed to (exactly how
 * util::parallelFor uses it). Never store one beyond the callee's
 * return.
 */

#ifndef SNIP_UTIL_FUNCTION_REF_H
#define SNIP_UTIL_FUNCTION_REF_H

#include <memory>
#include <type_traits>
#include <utility>

namespace snip {
namespace util {

template <typename Signature>
class FunctionRef;  // undefined; only the partial specialization below

template <typename R, typename... Args>
class FunctionRef<R(Args...)>
{
  public:
    /** Bind to any callable invocable as R(Args...). */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                  std::is_invocable_r_v<R, F &, Args...>>>
    FunctionRef(F &&f) noexcept  // NOLINT: implicit by design
        : obj_(const_cast<void *>(static_cast<const void *>(
              std::addressof(f)))),
          call_([](void *obj, Args... args) -> R {
              return (*static_cast<std::remove_reference_t<F> *>(
                  obj))(std::forward<Args>(args)...);
          })
    {
    }

    R
    operator()(Args... args) const
    {
        return call_(obj_, std::forward<Args>(args)...);
    }

  private:
    void *obj_;
    R (*call_)(void *, Args...);
};

}  // namespace util
}  // namespace snip

#endif  // SNIP_UTIL_FUNCTION_REF_H
