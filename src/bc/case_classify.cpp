#include "bc/case_classify.hpp"

#include <cassert>

namespace bcdyn {

CaseInfo classify_insertion(std::span<const Dist> dist, VertexId u,
                            VertexId v) {
  const Dist du = dist[static_cast<std::size_t>(u)];
  const Dist dv = dist[static_cast<std::size_t>(v)];
  CaseInfo info;
  if (du == dv) {
    // Same level; also covers "both unreachable" (both kInfDist): the new
    // edge lives entirely outside s's component and changes nothing.
    info.update_case = UpdateCase::kNoWork;
    return info;
  }
  info.u_high = du < dv ? u : v;
  info.u_low = du < dv ? v : u;
  const Dist lo = du < dv ? du : dv;
  const Dist hi = du < dv ? dv : du;
  // hi may be kInfDist (one endpoint unreachable): that is a Case 3 - the
  // unreachable side gets finite distances through the new edge.
  info.update_case =
      (hi - lo == 1) ? UpdateCase::kAdjacent : UpdateCase::kFar;
  return info;
}

CaseInfo classify_removal(const CSRGraph& g, std::span<const Dist> dist,
                          VertexId u, VertexId v, std::size_t* scanned) {
  const Dist du = dist[static_cast<std::size_t>(u)];
  const Dist dv = dist[static_cast<std::size_t>(v)];
  CaseInfo info;
  if (scanned != nullptr) *scanned = 0;
  // Same level (or both unreachable): the edge was never on a shortest
  // path from s.
  if (du == dv) return info;
  info.u_high = du < dv ? u : v;
  info.u_low = du < dv ? v : u;
  // The edge existed, so the stored levels differ by exactly one.
  assert(du - dv == 1 || dv - du == 1);
  const Dist d_low = dist[static_cast<std::size_t>(info.u_low)];
  info.update_case = UpdateCase::kFar;
  std::size_t reads = 0;
  for (const VertexId x : g.neighbors(info.u_low)) {
    ++reads;
    if (dist[static_cast<std::size_t>(x)] + 1 == d_low) {
      info.update_case = UpdateCase::kAdjacent;
      break;
    }
  }
  if (scanned != nullptr) *scanned = reads;
  return info;
}

}  // namespace bcdyn
