// Hermetic mock of the std:: and FastQRE surfaces qre-analyzer matches on,
// so the self-test corpus parses with no system headers (the CI runner's
// libstdc++ version must not change what the fixtures exercise). Only the
// shapes the four passes inspect are modeled: container names and template
// arguments, begin/end for range-for, the annotated mutex wrappers, the
// poll predicates, and RunMorsels. Bodies are intentionally absent — the
// analyzer never links or runs fixture code.
#pragma once

using RowId = unsigned int;
using ValueId = unsigned int;

inline constexpr unsigned long kInterruptPollMask = 0xfff;

namespace std {

template <class T>
struct hash {
  unsigned long operator()(const T&) const;
};
template <class T>
struct equal_to {
  bool operator()(const T&, const T&) const;
};
template <class T>
struct allocator {};

template <class T, class A = allocator<T>>
class vector {
 public:
  void push_back(const T&);
  void emplace_back(const T&);
  T* begin();
  T* end();
  const T* begin() const;
  const T* end() const;
  unsigned long size() const;
  bool empty() const;
  void reserve(unsigned long);
  T& operator[](unsigned long);
  const T& operator[](unsigned long) const;
};

template <class K, class H = hash<K>, class E = equal_to<K>,
          class A = allocator<K>>
class unordered_set {
 public:
  struct iterator {
    const K& operator*() const;
    iterator& operator++();
    bool operator!=(const iterator&) const;
  };
  iterator begin() const;
  iterator end() const;
  void insert(const K&);
  unsigned long count(const K&) const;
  unsigned long size() const;
};

template <class K, class V, class H = hash<K>, class E = equal_to<K>,
          class A = allocator<K>>
class unordered_map {
 public:
  struct value_type {
    K first;
    V second;
  };
  struct iterator {
    const value_type& operator*() const;
    iterator& operator++();
    bool operator!=(const iterator&) const;
  };
  iterator begin() const;
  iterator end() const;
  V& operator[](const K&);
  unsigned long count(const K&) const;
  unsigned long size() const;
};

template <class K>
struct less {
  bool operator()(const K&, const K&) const;
};

template <class K, class V, class Cmp = less<K>, class A = allocator<K>>
class map {
 public:
  struct value_type {
    K first;
    V second;
  };
  struct iterator {
    const value_type& operator*() const;
    iterator& operator++();
    bool operator!=(const iterator&) const;
  };
  iterator begin() const;
  iterator end() const;
  V& operator[](const K&);
  unsigned long count(const K&) const;
  unsigned long size() const;
};

template <class C>
class basic_string {
 public:
  basic_string();
  basic_string(const C*);
  basic_string& operator+=(const C*);
  unsigned long size() const;
};
using string = basic_string<char>;

template <class C>
class basic_ostream {
 public:
  basic_ostream& operator<<(int);
  basic_ostream& operator<<(const C*);
};
using ostream = basic_ostream<char>;

template <class It>
void sort(It, It);
template <class It, class Cmp>
void sort(It, It, Cmp);

}  // namespace std

// FastQRE-shaped types (see src/storage/tuple_set.h, src/common/).
struct IdTupleHash {
  unsigned long operator()(const std::vector<ValueId>&) const;
};
// TupleSet is a class — an insertion-ordered flat set, not an unordered_*
// alias — so the analyzer must recognize it by its record name: iterating
// one is data-scaled (poll-coverage) and a by-value one is governed
// (governed-alloc), but its iteration order is not hash order.
class TupleSet {
 public:
  struct const_iterator {
    const std::vector<ValueId>& operator*() const;
    const_iterator& operator++();
    bool operator!=(const const_iterator&) const;
  };
  const_iterator begin() const;
  const_iterator end() const;
  void insert(const std::vector<ValueId>&);
  unsigned long count(const std::vector<ValueId>&) const;
  unsigned long size() const;
};
// A genuinely hash-ordered tuple set, for the unordered-escape fixtures.
using UnorderedTupleSet = std::unordered_set<std::vector<ValueId>, IdTupleHash>;
using ReachMap = std::unordered_map<ValueId, std::vector<ValueId>>;

// Server-shaped aliases (see src/server/job_manager.h). The alias name is
// the classification evidence — the analyzer flags any JobTable /
// AnswerBuffer declaration missing a `// gov:` marker.
struct WireAnswer {
  int index;
  bool found;
};
struct ServerJob {};
using AnswerBuffer = std::vector<WireAnswer>;
using JobTable = std::map<unsigned long, ServerJob*>;

class Mutex {
 public:
  void Lock();
  void Unlock();
};
class SharedMutex {
 public:
  void Lock();
  void Unlock();
  void LockShared();
  void UnlockShared();
};
class MutexLock {
 public:
  explicit MutexLock(Mutex* mu);
  ~MutexLock();
};
class ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu);
  ~ReaderMutexLock();
};
class WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu);
  ~WriterMutexLock();
};

struct RunControl {
  bool ShouldStop() const;
};

template <class Fn>
inline void RunMorsels(void* pool, int extra_workers,
                       unsigned long num_morsels, Fn fn) {
  (void)pool;
  (void)extra_workers;
  fn(0ul, num_morsels);
}
