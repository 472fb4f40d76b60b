"""Unfitted finite-element solver for multi-body frictionless contact.

Level-set geometry on a fixed background triangle mesh, ghost-penalty
stabilized P1 elasticity on fictitious subdomains, and a two-stage LaTIn
iteration with a stabilized P1-P1 mixed interface discretization.
"""

import logging

# silent unless the application configures logging
logging.getLogger(__name__).addHandler(logging.NullHandler())

__version__ = "0.1.0"
