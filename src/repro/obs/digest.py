"""SHA-256 for run digests and seed derivation, without OpenSSL.

The standard library's generic hashing module maps OpenSSL's libcrypto
(3.5 MiB of resident memory) to offer the one algorithm this package
uses; CPython's own ``random`` module avoids it for the same reason.  The
interpreter's built-in SHA-256 module gives byte-identical digests:
``_sha256`` up to CPython 3.11, ``_sha2`` from 3.12 on.
"""

try:
    from _sha256 import sha256
except ImportError:
    from _sha2 import sha256

__all__ = ["sha256"]
