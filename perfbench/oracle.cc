#include "oracle.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

using elephant::Database;
using elephant::QueryResult;
using elephant::Result;
using elephant::Row;
using elephant::Status;
using elephant::TypeId;
using elephant::Value;

namespace {

/// One typed output cell of an oracle row.
struct Cell {
  bool is_string = false;
  int64_t i = 0;
  std::string s;
};
using OracleRow = std::vector<Cell>;

Cell Int(int64_t v) { return Cell{false, v, {}}; }
Cell Str(char c) { return Cell{true, 0, std::string(1, c)}; }

std::string CanonicalValue(const Value& v) {
  if (v.is_null()) return "~";
  switch (v.type()) {
    case TypeId::kChar:
    case TypeId::kVarchar:
      return v.AsString();
    case TypeId::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble());
      return buf;
    }
    default:
      return std::to_string(v.AsInt64());
  }
}

std::string CanonicalRow(const OracleRow& row) {
  std::string out;
  for (const Cell& c : row) {
    out += c.is_string ? c.s : std::to_string(c.i);
    out += '|';
  }
  return out;
}

/// Column positions by name in a `SELECT *` result.
Result<std::vector<int>> Positions(const QueryResult& r,
                                   const std::vector<std::string>& names) {
  std::vector<int> out;
  for (const std::string& n : names) {
    const int pos = r.schema.FindColumn(n);
    if (pos < 0) return Status::NotFound("column " + n + " not in result");
    out.push_back(pos);
  }
  return out;
}

Result<QueryResult> ScanAll(Database* db, const std::string& table) {
  return db->Execute("SELECT * FROM " + table);
}

bool GroupLess(const OracleRow& a, const OracleRow& b, size_t groups) {
  for (size_t c = 0; c < groups; c++) {
    if (a[c].is_string != b[c].is_string) return a[c].is_string < b[c].is_string;
    if (a[c].is_string ? a[c].s != b[c].s : a[c].i != b[c].i) {
      return a[c].is_string ? a[c].s < b[c].s : a[c].i < b[c].i;
    }
  }
  return false;
}

}  // namespace

const char* QueryName(QueryKind kind) {
  static const char* const kNames[] = {"Q1", "Q2", "Q3", "Q4",
                                       "Q5", "Q6", "Q7", "TPCH-Q1"};
  return kNames[static_cast<int>(kind)];
}

Canonical Canonicalize(const QueryResult& result) {
  Canonical out;
  out.reserve(result.rows.size());
  for (const Row& row : result.rows) {
    std::string line;
    for (const Value& v : row) {
      line += CanonicalValue(v);
      line += '|';
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status Oracle::Load(Database* db) {
  {
    ELE_ASSIGN_OR_RETURN(QueryResult r, ScanAll(db, "customer"));
    ELE_ASSIGN_OR_RETURN(std::vector<int> pos,
                         Positions(r, {"c_custkey", "c_nationkey"}));
    for (const Row& row : r.rows) {
      const int64_t key = row[pos[0]].AsInt64();
      if (key <= 0 || key > (1 << 30)) return Status::Internal("bad c_custkey");
      if (nation_of_customer_.size() <= static_cast<size_t>(key)) {
        nation_of_customer_.resize(static_cast<size_t>(key) + 1, -1);
      }
      nation_of_customer_[static_cast<size_t>(key)] =
          static_cast<int32_t>(row[pos[1]].AsInt64());
    }
    num_customers_ = r.rows.size();
  }
  {
    ELE_ASSIGN_OR_RETURN(QueryResult r, ScanAll(db, "supplier"));
    num_suppliers_ = r.rows.size();
  }
  {
    ELE_ASSIGN_OR_RETURN(QueryResult r, ScanAll(db, "orders"));
    ELE_ASSIGN_OR_RETURN(
        std::vector<int> pos,
        Positions(r, {"o_orderkey", "o_custkey", "o_orderdate"}));
    for (const Row& row : r.rows) {
      const int64_t key = row[pos[0]].AsInt64();
      if (key <= 0 || key > (1 << 30)) return Status::Internal("bad o_orderkey");
      AppendOrder(static_cast<int32_t>(key),
                  OrderRow{static_cast<int32_t>(row[pos[1]].AsInt64()),
                           static_cast<int32_t>(row[pos[2]].AsInt64())});
    }
  }
  {
    ELE_ASSIGN_OR_RETURN(QueryResult r, ScanAll(db, "lineitem"));
    ELE_ASSIGN_OR_RETURN(
        std::vector<int> pos,
        Positions(r, {"l_orderkey", "l_suppkey", "l_quantity",
                      "l_extendedprice", "l_discount", "l_tax", "l_returnflag",
                      "l_linestatus", "l_shipdate", "l_receiptdate"}));
    lines_.reserve(r.rows.size());
    for (const Row& row : r.rows) {
      LineRow l;
      l.orderkey = static_cast<int32_t>(row[pos[0]].AsInt64());
      l.suppkey = static_cast<int32_t>(row[pos[1]].AsInt64());
      l.quantity = static_cast<int32_t>(row[pos[2]].AsInt64());
      l.extprice = row[pos[3]].AsInt64();
      l.discount = row[pos[4]].AsInt64();
      l.tax = row[pos[5]].AsInt64();
      l.returnflag = row[pos[6]].AsString().empty() ? '?' : row[pos[6]].AsString()[0];
      l.linestatus = row[pos[7]].AsString().empty() ? '?' : row[pos[7]].AsString()[0];
      l.shipdate = static_cast<int32_t>(row[pos[8]].AsInt64());
      l.receiptdate = static_cast<int32_t>(row[pos[9]].AsInt64());
      if (l.orderkey <= 0 || static_cast<size_t>(l.orderkey) >= orders_.size() ||
          !order_present_[static_cast<size_t>(l.orderkey)]) {
        return Status::Internal("lineitem row without its order");
      }
      AppendLine(l);
    }
  }
  return Status::OK();
}

void Oracle::AppendOrder(int32_t orderkey, const OrderRow& row) {
  const size_t key = static_cast<size_t>(orderkey);
  if (orders_.size() <= key) {
    orders_.resize(key + 1);
    order_present_.resize(key + 1, false);
  }
  orders_[key] = row;
  order_present_[key] = true;
  num_orders_++;
  orderdates_[row.orderdate]++;
}

void Oracle::AppendLine(const LineRow& row) {
  lines_.push_back(row);
  shipdates_[row.shipdate]++;
}

void Oracle::RemoveOrdersFrom(int32_t first_key) {
  // A date whose count drops to 0 is erased: DateForSelectivity must see the
  // same dates as before the rows were appended.
  auto forget = [](std::map<int32_t, uint64_t>* counts, int32_t date) {
    auto it = counts->find(date);
    if (--it->second == 0) counts->erase(it);
  };
  for (size_t key = static_cast<size_t>(first_key); key < orders_.size(); key++) {
    if (!order_present_[key]) continue;
    forget(&orderdates_, orders_[key].orderdate);
    num_orders_--;
  }
  if (orders_.size() > static_cast<size_t>(first_key)) {
    orders_.resize(static_cast<size_t>(first_key));
    order_present_.resize(static_cast<size_t>(first_key));
  }
  std::erase_if(lines_, [&](const LineRow& l) {
    if (l.orderkey < first_key) return false;
    forget(&shipdates_, l.shipdate);
    return true;
  });
}

int32_t Oracle::DateForSelectivity(const std::map<int32_t, uint64_t>& counts,
                                   double fraction) const {
  uint64_t total = 0;
  for (const auto& [date, n] : counts) total += n;
  const uint64_t want_above =
      static_cast<uint64_t>(fraction * static_cast<double>(total));
  uint64_t above = 0;
  for (auto it = counts.rbegin(); it != counts.rend(); ++it) {
    above += it->second;
    if (above >= want_above) return it->first;
  }
  return counts.begin()->first;
}

int32_t Oracle::ShipdateForSelectivity(double fraction) const {
  return DateForSelectivity(shipdates_, fraction);
}

int32_t Oracle::OrderdateForSelectivity(double fraction) const {
  return DateForSelectivity(orderdates_, fraction);
}

double Oracle::Selectivity(const Instance& inst) const {
  uint64_t keep = 0;
  for (const LineRow& l : lines_) {
    const int32_t od = orders_[static_cast<size_t>(l.orderkey)].orderdate;
    switch (inst.kind) {
      case QueryKind::kQ1:
      case QueryKind::kQ3:
        keep += l.shipdate > inst.d;
        break;
      case QueryKind::kQ2:
        keep += l.shipdate == inst.d;
        break;
      case QueryKind::kQ4:
      case QueryKind::kQ6:
        keep += od > inst.d;
        break;
      case QueryKind::kQ5:
        keep += od == inst.d;
        break;
      case QueryKind::kQ7:
        keep += l.returnflag == 'R';
        break;
      case QueryKind::kTpchQ1:
        keep += l.shipdate <= inst.d;
        break;
    }
  }
  return lines_.empty() ? 0.0
                        : static_cast<double>(keep) /
                              static_cast<double>(lines_.size());
}

Canonical Oracle::Expected(const Instance& inst) const {
  std::vector<OracleRow> rows;
  size_t groups = 1;
  // Per-group aggregate of one key: COUNT(*), MAX(date) or SUM(decimal).
  std::map<int64_t, int64_t> agg;
  auto count = [&agg](int64_t key) { agg[key]++; };
  auto max = [&agg](int64_t key, int64_t v) {
    auto [it, fresh] = agg.emplace(key, v);
    if (!fresh) it->second = std::max(it->second, v);
  };
  const int32_t d = inst.d;
  switch (inst.kind) {
    case QueryKind::kQ1:
      for (const LineRow& l : lines_) {
        if (l.shipdate > d) count(l.shipdate);
      }
      break;
    case QueryKind::kQ2:
      for (const LineRow& l : lines_) {
        if (l.shipdate == d) count(l.suppkey);
      }
      break;
    case QueryKind::kQ3:
      for (const LineRow& l : lines_) {
        if (l.shipdate > d) count(l.suppkey);
      }
      break;
    case QueryKind::kQ4:
    case QueryKind::kQ5:
    case QueryKind::kQ6:
      for (const LineRow& l : lines_) {
        const int32_t od = orders_[static_cast<size_t>(l.orderkey)].orderdate;
        const bool keep = inst.kind == QueryKind::kQ5 ? od == d : od > d;
        if (!keep) continue;
        max(inst.kind == QueryKind::kQ4 ? od : l.suppkey, l.shipdate);
      }
      break;
    case QueryKind::kQ7:
      for (const LineRow& l : lines_) {
        if (l.returnflag != 'R') continue;
        const OrderRow& o = orders_[static_cast<size_t>(l.orderkey)];
        agg[nation_of_customer_[static_cast<size_t>(o.custkey)]] += l.extprice;
      }
      break;
    case QueryKind::kTpchQ1: {
      struct Sums {
        int64_t count = 0, qty = 0, price = 0, disc_price = 0, days = 0;
        int64_t first_ship = INT64_MAX, max_tax = INT64_MIN;
      };
      std::map<std::pair<char, char>, Sums> by_flag;
      for (const LineRow& l : lines_) {
        if (l.shipdate > d) continue;
        Sums& s = by_flag[{l.returnflag, l.linestatus}];
        s.count++;
        s.qty += l.quantity;
        s.price += l.extprice;
        // DECIMAL x DECIMAL keeps scale 2, truncating toward zero.
        s.disc_price += l.extprice * l.discount / 100;
        s.days += l.receiptdate - l.shipdate;
        s.first_ship = std::min<int64_t>(s.first_ship, l.shipdate);
        s.max_tax = std::max(s.max_tax, l.tax);
      }
      for (const auto& [key, s] : by_flag) {
        rows.push_back({Str(key.first), Str(key.second), Int(s.count),
                        Int(s.qty), Int(s.price), Int(s.disc_price),
                        Int(s.days), Int(s.first_ship), Int(s.max_tax)});
      }
      groups = 2;
      break;
    }
  }
  if (inst.kind != QueryKind::kTpchQ1) {
    for (const auto& [key, v] : agg) rows.push_back({Int(key), Int(v)});
  }
  if (inst.top_k > 0) {
    // ORDER BY <last column> DESC, <group columns> ASC LIMIT k.
    std::sort(rows.begin(), rows.end(),
              [groups](const OracleRow& a, const OracleRow& b) {
                const Cell& x = a.back();
                const Cell& y = b.back();
                if (x.i != y.i) return x.i > y.i;
                return GroupLess(a, b, groups);
              });
    if (rows.size() > static_cast<size_t>(inst.top_k)) {
      rows.resize(static_cast<size_t>(inst.top_k));
    }
  }
  Canonical out;
  out.reserve(rows.size());
  for (const OracleRow& r : rows) out.push_back(CanonicalRow(r));
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace perfbench
