#include "selfheal/linalg/sparse.hpp"

#include <algorithm>
#include <stdexcept>

namespace selfheal::linalg {

CsrMatrix CsrMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                   const std::vector<Triplet>& triplets) {
  CsrMatrix m;
  m.cols_ = cols;
  m.row_start_.assign(rows + 1, 0);

  // Counting-sort seal (deps/dependency.cpp idiom): count, prefix-sum,
  // scatter into place, then tidy each row.
  for (const auto& t : triplets) {
    if (t.row >= rows || t.col >= cols) {
      throw std::out_of_range("CsrMatrix::from_triplets: index out of range");
    }
    ++m.row_start_[t.row + 1];
  }
  for (std::size_t r = 0; r < rows; ++r) m.row_start_[r + 1] += m.row_start_[r];
  m.entries_.resize(triplets.size());
  std::vector<std::size_t> cursor(m.row_start_.begin(), m.row_start_.end() - 1);
  for (const auto& t : triplets) {
    m.entries_[cursor[t.row]++] = Entry{t.col, t.value};
  }

  // Sort each row by column and merge duplicates in place.
  std::size_t write = 0;
  std::vector<std::size_t> new_start(rows + 1, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t begin = m.row_start_[r];
    const std::size_t end = m.row_start_[r + 1];
    std::sort(m.entries_.begin() + static_cast<std::ptrdiff_t>(begin),
              m.entries_.begin() + static_cast<std::ptrdiff_t>(end),
              [](const Entry& a, const Entry& b) { return a.col < b.col; });
    new_start[r] = write;
    for (std::size_t k = begin; k < end; ++k) {
      if (write > new_start[r] && m.entries_[write - 1].col == m.entries_[k].col) {
        m.entries_[write - 1].value += m.entries_[k].value;
      } else {
        m.entries_[write++] = m.entries_[k];
      }
    }
  }
  new_start[rows] = write;
  m.entries_.resize(write);
  m.row_start_ = std::move(new_start);
  return m;
}

Vector CsrMatrix::left_multiply(const Vector& x) const {
  if (x.size() != rows()) throw std::invalid_argument("CsrMatrix::left_multiply: size mismatch");
  Vector y(cols_, 0.0);
  for (std::size_t r = 0; r < rows(); ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (const auto& e : row(r)) y[e.col] += xr * e.value;
  }
  return y;
}

Vector CsrMatrix::right_multiply(const Vector& x) const {
  if (x.size() != cols_) throw std::invalid_argument("CsrMatrix::right_multiply: size mismatch");
  Vector y(rows(), 0.0);
  for (std::size_t r = 0; r < rows(); ++r) {
    double acc = 0.0;
    for (const auto& e : row(r)) acc += e.value * x[e.col];
    y[r] = acc;
  }
  return y;
}

CsrMatrix CsrMatrix::transposed() const {
  std::vector<Triplet> triplets;
  triplets.reserve(nnz());
  for (std::size_t r = 0; r < rows(); ++r) {
    for (const auto& e : row(r)) {
      triplets.push_back(Triplet{e.col, static_cast<std::uint32_t>(r), e.value});
    }
  }
  return from_triplets(cols_, rows(), triplets);
}

std::vector<std::uint32_t> reverse_cuthill_mckee(const CsrMatrix& a) {
  const std::size_t n = a.rows();
  if (a.cols() != n) throw std::invalid_argument("reverse_cuthill_mckee: matrix not square");

  // Symmetrized adjacency (pattern of A + A^T, diagonal dropped).
  std::vector<std::vector<std::uint32_t>> adj(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (const auto& e : a.row(r)) {
      if (e.col == r) continue;
      adj[r].push_back(e.col);
      adj[e.col].push_back(static_cast<std::uint32_t>(r));
    }
  }
  for (auto& nb : adj) {
    std::sort(nb.begin(), nb.end());
    nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
  }

  std::vector<std::uint32_t> order;
  order.reserve(n);
  std::vector<char> seen(n, 0);
  std::vector<std::uint32_t> frontier;
  for (std::size_t start = 0; start < n; ++start) {
    if (seen[start]) continue;
    // Minimum-degree unseen vertex roots this component.
    std::uint32_t root = static_cast<std::uint32_t>(start);
    for (std::size_t v = start + 1; v < n; ++v) {
      if (!seen[v] && adj[v].size() < adj[root].size()) root = static_cast<std::uint32_t>(v);
    }
    seen[root] = 1;
    frontier.assign(1, root);
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const std::uint32_t v = frontier[head];
      order.push_back(v);
      auto nb = adj[v];  // copy: sort by degree without disturbing adj
      std::sort(nb.begin(), nb.end(), [&](std::uint32_t x, std::uint32_t y) {
        return adj[x].size() != adj[y].size() ? adj[x].size() < adj[y].size() : x < y;
      });
      for (std::uint32_t w : nb) {
        if (!seen[w]) {
          seen[w] = 1;
          frontier.push_back(w);
        }
      }
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

std::size_t bandwidth_under(const CsrMatrix& a, const std::vector<std::uint32_t>& order) {
  const std::size_t n = a.rows();
  if (a.cols() != n || order.size() != n) {
    throw std::invalid_argument("bandwidth_under: size mismatch");
  }
  std::vector<std::uint32_t> position(n);
  for (std::size_t i = 0; i < n; ++i) position[order[i]] = static_cast<std::uint32_t>(i);
  std::size_t band = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const std::uint32_t pr = position[r];
    for (const auto& e : a.row(r)) {
      const std::uint32_t pc = position[e.col];
      band = std::max<std::size_t>(band, pr > pc ? pr - pc : pc - pr);
    }
  }
  return band;
}

}  // namespace selfheal::linalg
