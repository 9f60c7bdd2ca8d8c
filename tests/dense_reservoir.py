"""Reference engine for the reservoir tests: the dense, density-matrix
reservoir step.

Every step rebuilds the lifted memristor bank as a full dim x dim
matrix from per-pair coupler lifts, pushes a pure amplitude vector or a
full density matrix through the input mesh and the bank, and computes
reinjection and the output mesh on the whole state.  It shares only the
meshes, rails, fresh memristor bank and sampling generator of
`Reservoir`, and reads each feedback-rail expectation off the dense
state's diagonal, so the engine's scalar feedback recurrence and its
final ket-factor step can be checked against it step for step.
"""

import numpy as np

from permanent_lift import lift_sector
from qumem.fock import DimensionError, _sector, coupler
from qumem.memristor import estimate_n_in
from qumem.reservoir import Reservoir


def advance_bank(bank, t, fb_probs):
    """One unit time step, to time t, of every memristor of a bank, each
    fed the input estimated from its feedback-rail expectation."""
    for mem, fb in zip(bank, fb_probs.tolist()):
        mem.advance(float(t), estimate_n_in(fb, mem.R))


class DenseReservoir(Reservoir):

    def __init__(self, config):
        super().__init__(config)
        occ = self.basis.occupation_matrix()
        p = self.config.photons
        self._pair_q = []
        self._pair_li = []
        mask = np.ones((self.basis.size, self.basis.size), dtype=bool)
        for _, thru, fb in self.rails:
            q = occ[:, thru] + occ[:, fb]
            self._pair_q.append(q)
            self._pair_li.append(q - occ[:, thru])
            mask &= q[:, None] == q[None, :]
        rest_modes = [m for m in range(self.config.modes)
                      if all(m not in (t, f) for _, t, f in self.rails)]
        _, rest_id = np.unique(occ[:, rest_modes], axis=0,
                               return_inverse=True)
        mask &= rest_id[:, None] == rest_id[None, :]
        self._layer_mask = mask
        self._pair_sectors = [_sector(2, q) for q in range(p + 1)]

        target = np.empty(self.basis.size, dtype=int)
        patterns = {}
        for i, occupation in enumerate(self.basis.states):
            o = list(occupation)
            pat = tuple(o[fb] for _, _, fb in self.rails)
            for _, thru, fb in self.rails:
                o[thru] += o[fb]
                o[fb] = 0
            target[i] = self.basis.index_of(tuple(o))
            patterns.setdefault(pat, []).append(i)
        self._dense_groups = [(np.array(idx), target[np.array(idx)])
                              for idx in patterns.values()]
        occm = occ.astype(float)
        self._fb_weights = [occm[:, fb] for _, _, fb in self.rails]

    def layer_lift(self, reflectivities):
        p = self.config.photons
        out = self._layer_mask.astype(complex)
        for k, r in enumerate(reflectivities):
            block = coupler(r)
            table = np.zeros((p + 1, p + 1, p + 1), dtype=complex)
            for q in range(p + 1):
                table[q, : q + 1, : q + 1] = lift_sector(
                    block, self._pair_sectors[q])
            q, li = self._pair_q[k], self._pair_li[k]
            out *= table[q[:, None], li[:, None], li[None, :]]
        return out

    def _reinject_density(self, rho):
        out = np.zeros_like(rho)
        for idx, tgt in self._dense_groups:
            out[np.ix_(tgt, tgt)] += rho[np.ix_(idx, idx)]
        return out

    def _reinject_branches(self, vec):
        cols = []
        for idx, tgt in self._dense_groups:
            part = vec[idx]
            if np.any(part != 0):
                col = np.zeros(vec.size, dtype=complex)
                col[tgt] = part
                cols.append(col)
        return np.stack(cols, axis=1)

    def _dense_step(self, x, bank, t, want_output):
        state = x.state
        if state.dim != self.basis.size:
            raise DimensionError("input state does not match the reservoir")
        lifted_layer = self.layer_lift([mem.R for mem in bank])
        probs = None
        if state.is_pure:
            vec = self.u_in_f @ state.amplitudes
            vec = lifted_layer @ vec
            diag = np.abs(vec) ** 2
            fb_probs = np.array([diag @ w for w in self._fb_weights])
            if want_output:
                branches = self._reinject_branches(vec)
                out_branches = self.u_out_f @ branches
                probs = (np.abs(out_branches) ** 2).sum(axis=1)
        else:
            rho = self.u_in_f @ state.density() @ self.u_in_f.conj().T
            rho = lifted_layer @ rho @ lifted_layer.conj().T
            diag = rho.diagonal().real
            fb_probs = np.array([diag @ w for w in self._fb_weights])
            if want_output:
                rho = self._reinject_density(rho)
                rho = self.u_out_f @ rho @ self.u_out_f.conj().T
                probs = rho.diagonal().real
        advance_bank(bank, t, fb_probs)
        return probs

    def run_sequence(self, inputs):
        inputs = list(inputs)
        if not inputs:
            raise ValueError("input sequence must be non-empty")
        bank = self._bank()
        for t, x in enumerate(inputs, 1):
            probs = self._dense_step(x, bank, float(t),
                                     want_output=t == len(inputs))
        self.reflectivities = np.array([mem.R for mem in bank])
        return self._measured_probs(probs)
