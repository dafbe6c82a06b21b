#pragma once
/// \file particle_codec.hpp
/// \brief Checkpoint field lists of the particle-level records: Particle,
/// SourceEntry, the ghost export layout, Box and the rng state.
///
/// Each list is the single statement of its record's wire layout, in
/// declaration order: ByteWriter and ByteReader both call it (see
/// serialize.hpp), so writing and reading can never drift apart.

#include "fdps/box.hpp"
#include "fdps/let.hpp"
#include "fdps/particle.hpp"
#include "fdps/tree.hpp"
#include "io/serialize.hpp"
#include "util/rng.hpp"

namespace asura::io {

template <class Io, Record<fdps::Particle> P>
void fields(Io& io, P& p) {
  io(p.id, p.type, p.mass, p.pos, p.vel, p.acc, p.pot, p.eps, p.u, p.u_pred, p.du_dt, p.h,
     p.rho, p.pres, p.cs, p.divv, p.curlv, p.vsig, p.nngb, p.t_form, p.t_sn, p.star_mass,
     p.frozen, p.rung, p.rung_ngb, p.work);
}

template <class Io, Record<fdps::SourceEntry> E>
void fields(Io& io, E& e) {
  io(e.pos, e.mass, e.eps, e.h, e.idx);
}

template <class Io, Record<fdps::GhostExchange> G>
void fields(Io& io, G& g) {
  io(g.export_idx, g.import_counts, g.exported_reach);
}

template <class Io, Record<fdps::Box> B>
void fields(Io& io, B& b) {
  io(b.lo, b.hi);
}

template <class Io, Record<util::Pcg32::State> S>
void fields(Io& io, S& s) {
  io(s.state, s.inc, s.cached, s.has_cached);
}

}  // namespace asura::io
