"""Geometric phases and non-Abelian holonomies for parametrized Hamiltonians.

Library layout:

* linalg    -- dense Hermitian eigenproblems, step propagators, batched link
               variables and ordered products, angles
* models    -- qubit and four-level dark-state Hamiltonians, parameter paths
* abelian   -- scalar phases: cyclic invariants, transport, connection,
               curvature, solid-angle oracle
* holonomy  -- frame tracking, Wilson lines, closed-form dark-space rotation
* adiabatic -- Schrodinger integration, dynamical phases, convergence sweeps
* schema    -- config field declarations: defaults, checks, documented values
* report    -- CSV/JSON report serialization
* experiments / cli -- reproducible experiment runners with CSV/JSON reports
"""

__version__ = "0.1.0"
