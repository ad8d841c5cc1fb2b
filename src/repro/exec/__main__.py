"""``python -m repro.exec LOG [--partial] [--ring]``: validate an event log.

The CLI lives here rather than in :mod:`repro.exec.events` because the
package imports that module eagerly, and ``runpy`` warns when it has to
re-execute a module that is already in ``sys.modules``.
"""

import sys

from repro.exec.events import main

if __name__ == "__main__":
    sys.exit(main())
