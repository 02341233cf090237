"""Inversion-free rectified-flow image editing with frequency-interactive
attention, built around a deterministic toy velocity model so every mechanism
is testable at desk scale."""

__version__ = "0.1.0"
