"""embnum: semantic labeling of numerical table columns.

Unknown columns are matched to labeled ones by embedding a fixed-length
quantile summary of each column with a 1-D residual network trained under a
triplet margin loss, then ranking labeled attributes by Euclidean distance.
Statistical baselines (KS ranking and a logistic KS/MW/Jaccard combination)
share the same labeling and benchmark harness.
"""

__version__ = "0.1.0"
