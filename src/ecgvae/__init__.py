"""ECG cycle autoencoder toolkit.

It imports no submodule, so that the CLI can pin BLAS threads before numpy
loads: import the module you use, e.g. `from ecgvae import model`.
"""

__version__ = "0.1.0"
