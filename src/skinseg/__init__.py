"""Two-stage pixel + neighbourhood skin-colour segmentation toolkit.

The command line (``skinseg.cli``) is the interface. Library names are
imported from the module that defines them:

- ``skinseg.dataset`` — the UCI row format, columnar samples, the split
- ``skinseg.colorspace`` — RGB→HSV and RGB→YCbCr over pixel arrays
- ``skinseg.classifiers`` — threshold, naive Bayes and tree classifiers
- ``skinseg.nn`` — the MLP classifier and its training
- ``skinseg.model_io`` — model files and dataset fingerprints
- ``skinseg.segment`` — stage 1: per-pixel scores of an image
- ``skinseg.neighbourhood`` — stage 2: likeliness refinement into a mask
- ``skinseg.metrics`` — confusion counts, scalar metrics, ROC/AUC
- ``skinseg.raster`` — PPM/PGM I/O and 2× resampling
"""

__version__ = "1.0.0"
