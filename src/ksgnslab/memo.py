"""The build memo shared by the construction layers.

One BuildMemo lives for one checked instance (harness.check_instance makes
it and drops it on return).  Builders that take one build each tensor
module, KSGNS triple, extended CP map and composite once per key; a call
made without one gets a throwaway memo for that call alone
(BuildMemo.for_call), so its builds share objects with each other and with
nothing else.  There is no module-level memo.
"""

from __future__ import annotations

from typing import Any, Callable


class BuildMemo:
    """Finished builds, each stored under the key that names its inputs.

    Keys name modules, CP maps and morphisms by id() and star maps by
    content; each entry also holds the objects its key names, so no id can
    be reused while the memo lives.  A build that raises stores nothing: the
    next request repeats it and raises again.
    """

    def __init__(self) -> None:
        self._done: dict[tuple, tuple] = {}

    @classmethod
    def for_call(cls, memo: BuildMemo | None) -> BuildMemo:
        """memo itself, or a throwaway memo for a call made without one."""
        return memo if memo is not None else cls()

    def get(self, key: tuple, keep: tuple, build: Callable[[], Any]) -> Any:
        if key not in self._done:
            self._done[key] = (keep, build())
        return self._done[key][1]
