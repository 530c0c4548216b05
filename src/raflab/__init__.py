"""raf-lab: a computational laboratory for regular arithmetic functions.

Solves the triangular recurrence sum_{k<=n} a_k G(n,k) = R(n), evaluates
arithmetic Mellin transforms (closed forms and defining limits), estimates
regularity indices from partial-sum asymptotics, and verifies exact
floor/Mobius counting identities.

Import each name from the module that defines it, as in
``from raflab.solver import solve``; the root holds only __version__.
"""

__version__ = "0.1.0"
