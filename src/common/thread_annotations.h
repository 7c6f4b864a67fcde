// Clang thread-safety-analysis attribute macros.
//
// These expand to Clang's `capability`-family attributes when the
// compiler supports them (`-Wthread-safety`; CI builds the tree with
// `-Werror=thread-safety`) and to nothing everywhere else, so GCC and
// MSVC builds see plain declarations. The names follow the canonical
// set from the Clang documentation — `GUARDED_BY`, `REQUIRES`,
// `EXCLUDES`, ... — because that is the vocabulary every layer-contract
// comment in this codebase now shares with the compiler.
//
// Use them through `common/mutex.h` (`trex::Mutex`, `trex::SharedMutex`
// and their scoped locks are the only lock types allowed outside that
// header; `tools/trex_check.py` enforces this). Annotate:
//
//   * data with the lock that protects it:   `int depth_ GUARDED_BY(mu_);`
//   * heap data behind a guarded pointer:    `T* p_ PT_GUARDED_BY(mu_);`
//   * functions with their lock pre-conditions:
//         `void EvictLru() REQUIRES(mu_);`
//         `std::size_t entries() const REQUIRES_SHARED(mu_);`
//   * functions that must NOT be entered with a lock held (the
//     deadlock-rule encoding):               `Stats stats() const EXCLUDES(mu_);`
//
// The analysis is intraprocedural and best-effort: it cannot see
// through type-erased callbacks or express "any entry's mutex", so a
// few cross-object rules remain comment-plus-test contracts (see
// serving/router.h). Everything else is a compile error under Clang.

#ifndef TREX_COMMON_THREAD_ANNOTATIONS_H_
#define TREX_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define TREX_THREAD_ANNOTATION__(x) __attribute__((x))
#endif
#endif
#ifndef TREX_THREAD_ANNOTATION__
#define TREX_THREAD_ANNOTATION__(x)  // not Clang: annotations are no-ops
#endif

/// Marks a class as a lockable capability (a mutex type).
#define CAPABILITY(x) TREX_THREAD_ANNOTATION__(capability(x))

/// Marks an RAII class whose constructor acquires and destructor
/// releases a capability.
#define SCOPED_CAPABILITY TREX_THREAD_ANNOTATION__(scoped_lockable)

/// Declares that a data member is protected by the given capability.
#define GUARDED_BY(x) TREX_THREAD_ANNOTATION__(guarded_by(x))

/// Declares that the data *pointed to* by a pointer member is protected
/// by the given capability (the pointer itself is not).
#define PT_GUARDED_BY(x) TREX_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Lock-ordering declarations (checked under -Wthread-safety-beta).
#define ACQUIRED_BEFORE(...) \
  TREX_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  TREX_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

/// The caller must hold the capability exclusively before the call.
#define REQUIRES(...) \
  TREX_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// The caller must hold the capability (shared is enough).
#define REQUIRES_SHARED(...) \
  TREX_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

/// The function acquires the capability (exclusively / shared) and does
/// not release it before returning.
#define ACQUIRE(...) \
  TREX_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  TREX_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))

/// The function releases the capability (held exclusively / shared /
/// either) on entry.
#define RELEASE(...) \
  TREX_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  TREX_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  TREX_THREAD_ANNOTATION__(release_generic_capability(__VA_ARGS__))

/// The function attempts to acquire the capability; the first argument
/// is the return value that signals success.
#define TRY_ACQUIRE(...) \
  TREX_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  TREX_THREAD_ANNOTATION__(try_acquire_shared_capability(__VA_ARGS__))

/// The caller must NOT hold the capability (deadlock-rule encoding:
/// re-entry and lock-order violations become compile errors).
#define EXCLUDES(...) TREX_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Tells the analysis (without runtime effect) that the capability is
/// held — for callback boundaries the analysis cannot see across.
#define ASSERT_CAPABILITY(x) \
  TREX_THREAD_ANNOTATION__(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  TREX_THREAD_ANNOTATION__(assert_shared_capability(x))

/// The function returns a reference to the given capability.
#define RETURN_CAPABILITY(x) TREX_THREAD_ANNOTATION__(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment explaining why the analysis cannot see the truth.
#define NO_THREAD_SAFETY_ANALYSIS \
  TREX_THREAD_ANNOTATION__(no_thread_safety_analysis)

#endif  // TREX_COMMON_THREAD_ANNOTATIONS_H_
