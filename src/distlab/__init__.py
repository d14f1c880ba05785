"""distlab: a grid-level laboratory for distortion inequalities,
distribution functions, staircase approximations and superlevel
Sobolev estimates."""

__version__ = "0.1.0"
