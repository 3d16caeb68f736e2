#!/usr/bin/env python3
"""Tour of the quiver layer: the category of equivariant D-modules on
binary cubics as representations of a quiver with relations, and the
classification of its indecomposables via the four subspace problem."""

from binarycubics import cubics, quiver as qv

# ----------------------------------------------------------------------
# The 14-vertex quiver.  Vertices are the simples (lower-cased), the
# relations kill all 2-cycles and all non-diagonal compositions through
# the central vertex p, and the resulting algebra is 30-dimensional.

pf = cubics.build("paper_full")
print("vertices:", ", ".join(pf.quiver.vertices))
print("algebra dimension:", pf.path_basis().dimension())
print("the one path from e to s:", pf.path_basis().paths("e", "s"))

# Composition factors of injective envelopes are path counts; compare
# s (factors S, P, E of S_Delta) and the central vertex p.
for v in ("s", "p", "g1", "g3"):
    inj = pf.injective(v)
    print(f"injective({v}) dimension vector:",
          {x: d for x, d in inj.dims.items() if d})

# ----------------------------------------------------------------------
# The interesting connected component has five vertices (1=S, 2=E,
# 3=D0, 4=Q0 around 5=P).  Its four outer projectives are injective:

bc = cubics.build("big_component")
for i, j in ((1, 2), (2, 1), (3, 4), (4, 3)):
    print(f"projective({i}) = injective({j}):",
          qv.is_isomorphic(bc.projective(str(i)), bc.injective(str(j))))

# ----------------------------------------------------------------------
# Four subspace problem: the extended Dynkin quiver with four sources.
# R_n(lam) is the one-parameter family of indecomposables in dimension
# vector (n, n, n, n, 2n); distinct parameters are non-isomorphic.

R = cubics.rn_family(1, 5)
print("\nR_1(5) arrow matrices:", {a: R.maps[a] for a in sorted(R.maps)})
print("indecomposable:", qv.is_indecomposable(R))
print("R_1(0) = R_1(1)?", qv.is_isomorphic(cubics.rn_family(1, 0), cubics.rn_family(1, 1)))

# Two embeddings carry four-subspace representations into the big
# component: alpha keeps the maps, beta dualizes them.
A, B = cubics.embed_alpha(R), cubics.embed_beta(R)
print("alpha image indecomposable:", qv.is_indecomposable(A))
print("beta image indecomposable:", qv.is_indecomposable(B))

# ----------------------------------------------------------------------
# Decomposition into indecomposables: split along coprime factors of
# minimal polynomials of endomorphisms, then certify each summand by
# the dimension of End modulo its radical.

scrambled = qv.conjugate(qv.direct_sum(cubics.rn_family(1, 3), cubics.rn_family(1, 7)), seed=5)
parts = qv.decompose(scrambled)
print("\nscrambled R_1(3) + R_1(7) decomposes into:",
      [p.dim_vector() for p in parts])
for p in parts:
    which = [lam for lam in (3, 7) if qv.is_isomorphic(p, cubics.rn_family(1, lam))]
    print("  summand is R_1 with parameter", which[0])

# ----------------------------------------------------------------------
# The classification theorem, checked on random representations: every
# indecomposable is a projective-injective, or all-beta-zero (an alpha
# embedding), or all-alpha-zero (a beta embedding).

report = cubics.check_tame_classification(samples=25, seed=0)
print("\ntame classification on 25 random representations:")
for key in ("summands", "case_projective_injective", "case_beta_zero",
            "case_alpha_zero", "inconclusive"):
    print(f"  {key}: {report[key]}")
print("  violations:", report["violations"] or "none")
