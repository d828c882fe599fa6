"""sigcalc: ordinals below epsilon_0, oscillation signatures, and their
exact piecewise-linear realizations.

The package imports no submodule: each is imported by name (`ordinal`,
`signature`, `normalizer`, `realization`, `cli`), so a command-line call
loads only what its verb uses, and a rank verb loads no PL code.
"""

__version__ = "0.1.0"
