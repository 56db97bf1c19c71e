"""Citywide traffic condition grade forecasting.

Multi-graph road similarity construction, SOM-based ordinal grade labeling,
a shared-weight multi-graph GCN with temporal and high-dimensional
multi-head attention, and attention-score-based importance analysis of the
(resolution x graph) feature combinations.
"""

__version__ = "0.1.0"
