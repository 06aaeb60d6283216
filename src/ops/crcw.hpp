#pragma once

#include <optional>
#include <vector>

#include "ops/sorting.hpp"

// Sort-based concurrent read / concurrent write and grouping (Section 2.6).
//
// A mesh or hypercube has no shared memory, so the PRAM's concurrent reads
// and writes are emulated by sorting: all data records and request records
// are sorted together by key, values propagate within key groups by a
// segmented scan, and answers are sorted back to their requesters.  This is
// exactly the emulation whose cost the paper quotes when comparing against
// direct PRAM simulation — Theta(n^(1/2)) per access round on the mesh,
// Theta(log^2 n) (bitonic) on the hypercube.
//
// The combined record file holds two records per PE (one data slot, one
// query slot).  A bitonic stage at element offset 2^k maps to a PE exchange
// at offset 2^(k-1) (offset 1 is PE-local), so the doubled sort costs the
// same Theta as the plain one.
namespace dyncg {
namespace ops {

namespace detail {

// Bitonic sort of a 2n-element file laid out two elements per PE.
template <class T, class Less>
void sort_doubled(Machine& m, std::vector<T>& elems, Less less) {
  std::size_t n2 = elems.size();
  DYNCG_ASSERT(n2 == 2 * m.size(), "doubled file must hold 2 per PE");
  for (std::size_t size = 2; size <= n2; size <<= 1) {
    std::size_t mask = size & (n2 - 1);
    for (std::size_t stride = size >> 1; stride >= 1; stride >>= 1) {
      if (stride == 1) {
        m.charge_local(1);
      } else {
        m.charge_exchange(static_cast<unsigned>(floor_log2(stride)) - 1);
        m.charge_local(1);
      }
      for (std::size_t r = 0; r < n2; ++r) {
        std::size_t partner = r ^ stride;
        if (partner <= r) continue;
        bool ascending = (r & mask) == 0;
        bool bad = ascending ? less(elems[partner], elems[r])
                             : less(elems[r], elems[partner]);
        if (bad) std::swap(elems[r], elems[partner]);
      }
    }
  }
}

// Inclusive scan of a doubled file (2 elements per PE, rank order).
template <class T, class Op>
void prefix_doubled(Machine& m, std::vector<T>& elems, Op op) {
  std::size_t n2 = elems.size();
  DYNCG_ASSERT(n2 == 2 * m.size(), "doubled file must hold 2 per PE");
  std::vector<T> total = elems;
  int levels = floor_log2(n2);
  for (int k = 0; k < levels; ++k) {
    std::size_t stride = std::size_t{1} << k;
    if (k == 0) {
      m.charge_local(1);
    } else {
      m.charge_exchange(static_cast<unsigned>(k) - 1);
      m.charge_local(1);
    }
    std::vector<T> incoming(total);
    for (std::size_t r = 0; r < n2; ++r) {
      std::size_t partner = r ^ stride;
      if (r & stride) {
        elems[r] = op(incoming[partner], elems[r]);
        total[r] = op(incoming[partner], total[r]);
      } else {
        total[r] = op(total[r], incoming[partner]);
      }
    }
  }
}

}  // namespace detail

// Concurrent read.  PE r may own one (key, value) record (`data[r]`) and may
// ask for one key (`queries[r]`).  Returns, aligned with the query PEs, the
// value of the matching data record, or nullopt if no such key exists.
// Keys need operator< and operator==; duplicate data keys return one of the
// matching values.  With exact_match = false, the read returns the value of
// the *predecessor* record (largest data key <= query key) — this is the
// "grouping" operation the paper uses for multiple simultaneous searches on
// ordered data (e.g. locating sectors in Lemma 5.5).  No key is copied:
// the sorted records point at the caller's keys, the scan carries positions
// in the sorted file, and a value is copied once, into its answer.
template <class Key, class Value>
std::vector<std::optional<Value>> concurrent_read(
    Machine& m, const std::vector<std::optional<std::pair<Key, Value>>>& data,
    const std::vector<std::optional<Key>>& queries, bool exact_match = true) {
  TRACE_SPAN_COST("ops.concurrent_read", m.ledger());
  std::size_t n = m.size();
  DYNCG_ASSERT(data.size() == n && queries.size() == n,
               "register file size mismatch");

  constexpr std::size_t kNone = ~std::size_t{0};
  struct Rec {
    const Key* key = nullptr;  // null: no record; these sort last
    int tag = 2;               // 0 = data, 1 = query
    std::size_t origin = 0;
    std::size_t source = kNone;  // query: the PE of the data record it reads
  };
  auto rec_less = [](const Rec& a, const Rec& b) {
    if ((a.key == nullptr) != (b.key == nullptr)) return b.key == nullptr;
    if (a.key == nullptr) return false;
    if (*a.key < *b.key) return true;
    if (*b.key < *a.key) return false;
    return a.tag < b.tag;  // data before queries of the same key
  };

  std::vector<Rec> file(2 * n);
  for (std::size_t r = 0; r < n; ++r) {
    if (data[r].has_value()) file[2 * r] = Rec{&data[r]->first, 0, r};
    if (queries[r].has_value()) file[2 * r + 1] = Rec{&*queries[r], 1, r};
  }
  detail::sort_doubled(m, file, rec_less);

  // Propagate each data record's position rightward to the queries it
  // serves.
  std::vector<std::size_t> carry(2 * n, kNone);
  for (std::size_t i = 0; i < file.size(); ++i) {
    if (file[i].key != nullptr && file[i].tag == 0) carry[i] = i;
  }
  detail::prefix_doubled(m, carry, [](std::size_t a, std::size_t b) {
    return b != kNone ? b : a;
  });
  m.charge_local(1);
  for (std::size_t i = 0; i < file.size(); ++i) {
    if (file[i].key != nullptr && file[i].tag == 1 && carry[i] != kNone) {
      const Key& query = *file[i].key;
      const Key& found = *file[carry[i]].key;
      bool key_le = !(query < found);
      bool key_eq = key_le && !(found < query);
      if (exact_match ? key_eq : key_le) file[i].source = file[carry[i]].origin;
    }
  }

  // Sort answers back to their requesters.
  auto home_less = [](const Rec& a, const Rec& b) {
    if ((a.key == nullptr) != (b.key == nullptr)) return b.key == nullptr;
    if (a.key == nullptr) return false;
    if (a.origin != b.origin) return a.origin < b.origin;
    return a.tag < b.tag;
  };
  detail::sort_doubled(m, file, home_less);

  std::vector<std::optional<Value>> out(n);
  for (const Rec& rec : file) {
    if (rec.key != nullptr && rec.tag == 1 && rec.source != kNone) {
      out[rec.origin] = data[rec.source]->second;
    }
  }
  return out;
}

// Concurrent write with a combining semigroup: PE r may submit one
// (key, value) request; the returned file gives, for each key owner
// (`owners[r]`), the op-combination of all values written to that key
// (nullopt if none).  Models the combining CW the PRAM simulation needs.
template <class Key, class Value, class Op>
std::vector<std::optional<Value>> concurrent_write(
    Machine& m,
    const std::vector<std::optional<std::pair<Key, Value>>>& requests,
    const std::vector<std::optional<Key>>& owners, Op op) {
  TRACE_SPAN_COST("ops.concurrent_write", m.ledger());
  std::size_t n = m.size();
  struct Rec {
    bool live = false;
    Key key{};
    int tag = 2;  // 0 = write request, 1 = owner slot
    std::size_t origin = 0;
    std::optional<Value> value{};
  };
  auto rec_less = [](const Rec& a, const Rec& b) {
    if (a.live != b.live) return a.live;
    if (!a.live) return false;
    if (a.key < b.key) return true;
    if (b.key < a.key) return false;
    return a.tag < b.tag;  // requests before the owner slot
  };
  std::vector<Rec> file(2 * n);
  for (std::size_t r = 0; r < n; ++r) {
    if (requests[r].has_value()) {
      file[2 * r] = Rec{true, requests[r]->first, 0, r, requests[r]->second};
    }
    if (owners[r].has_value()) {
      file[2 * r + 1] = Rec{true, *owners[r], 1, r, std::nullopt};
    }
  }
  detail::sort_doubled(m, file, rec_less);

  // Segmented combine within key groups; the owner slot (last of its group)
  // picks up the inclusive combination.
  struct Carry {
    bool has = false;
    Key key{};
    std::optional<Value> acc{};
  };
  std::vector<Carry> carry(2 * n);
  for (std::size_t i = 0; i < file.size(); ++i) {
    if (file[i].live && file[i].tag == 0) {
      carry[i] = Carry{true, file[i].key, file[i].value};
    }
  }
  detail::prefix_doubled(m, carry, [&op](const Carry& a, const Carry& b) {
    if (!b.has) return a;
    if (!a.has) return b;
    bool same = !(a.key < b.key) && !(b.key < a.key);
    if (!same) return b;
    Carry c = b;
    if (a.acc.has_value() && b.acc.has_value()) {
      c.acc = op(*a.acc, *b.acc);
    } else if (a.acc.has_value()) {
      c.acc = a.acc;
    }
    return c;
  });
  m.charge_local(1);
  for (std::size_t i = 0; i < file.size(); ++i) {
    if (file[i].live && file[i].tag == 1 && carry[i].has) {
      bool same = !(file[i].key < carry[i].key) && !(carry[i].key < file[i].key);
      if (same) file[i].value = carry[i].acc;
    }
  }

  auto home_less = [](const Rec& a, const Rec& b) {
    if (a.live != b.live) return a.live;
    if (!a.live) return false;
    if (a.origin != b.origin) return a.origin < b.origin;
    return a.tag < b.tag;
  };
  detail::sort_doubled(m, file, home_less);

  std::vector<std::optional<Value>> out(n);
  for (const Rec& rec : file) {
    if (rec.live && rec.tag == 1) out[rec.origin] = rec.value;
  }
  return out;
}

// Route each live item to the given destination rank (a permutation on the
// live items).  Implemented by the paper's standard "routing via sorting".
template <class T>
void route(Machine& m, std::vector<std::optional<T>>& regs,
           const std::vector<std::size_t>& dest) {
  TRACE_SPAN_COST("ops.route", m.ledger());
  std::size_t n = m.size();
  struct Slot {
    bool live = false;
    std::size_t dest = ~std::size_t{0};
    std::optional<T> value{};
  };
  std::vector<Slot> file(n);
  for (std::size_t r = 0; r < n; ++r) {
    if (regs[r].has_value()) file[r] = Slot{true, dest[r], std::move(regs[r])};
  }
  bitonic_sort(m, file, [](const Slot& a, const Slot& b) {
    if (a.live != b.live) return a.live;
    return a.dest < b.dest;
  });
  for (std::size_t r = 0; r < n; ++r) regs[r].reset();
  for (std::size_t r = 0; r < n; ++r) {
    if (file[r].live) {
      DYNCG_ASSERT(file[r].dest < n, "route destination out of range");
      regs[file[r].dest] = std::move(file[r].value);
    }
  }
  // Sorting by destination places item with dest d at the rank equal to its
  // order position; for a permutation of live items onto distinct ranks the
  // final fix-up is a monotone concentration, charged as one ladder.
  int levels = floor_log2(n);
  for (int k = 0; k < levels; ++k) m.charge_exchange(static_cast<unsigned>(k));
}

}  // namespace ops
}  // namespace dyncg
