"""One seeded-plan record and one compact grammar for fault and chaos plans.

:class:`~repro.runtime.faults.FaultPlan` schedules faults in the simulated
machine, :class:`~repro.runtime.chaos.ChaosPlan` host faults at the engine
seam.  Both are a seed plus a tuple of frozen specs, both serialise to
``{"seed": N, "<json_key>": [spec, ...]}``, and both parse from one grammar
of semicolon-separated events:

* ``kind[@n][:key=val,...]`` — one spec; ``@n`` sets the plan's
  :attr:`~SeededPlan.at_field` and each ``key=val`` an option,
* ``seed=N`` — seed the stochastic draws,
* ``@path.json`` — load a :meth:`SeededPlan.to_json` file instead.

A subclass names its spec class, the JSON key, the word its messages use,
the spec field ``@n`` sets and its option keys.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Callable, ClassVar, Dict, List, Sequence, Tuple, Type, TypeVar

from ..errors import ConfigurationError

_P = TypeVar("_P", bound="SeededPlan")


@dataclass(frozen=True)
class SeededPlan:
    """A seeded schedule of specs, replayable bit-for-bit."""

    specs: Tuple[Any, ...] = ()
    seed: int = 0

    #: The spec class every entry must be an instance of.
    spec_type: ClassVar[type]
    #: The list's key in the JSON form ("faults", "chaos").
    json_key: ClassVar[str]
    #: The word naming the plan in error messages ("fault", "chaos").
    noun: ClassVar[str]
    #: The spec field that ``kind@n`` sets.
    at_field: ClassVar[str]
    #: Grammar option key -> (spec field, value parser), in message order.
    options: ClassVar[Dict[str, Tuple[str, Callable[[str], Any]]]]

    def __init__(self, specs: Sequence[Any] = (), seed: int = 0) -> None:
        object.__setattr__(self, "specs", tuple(specs))
        object.__setattr__(self, "seed", int(seed))
        for spec in self.specs:
            if not isinstance(spec, self.spec_type):
                raise ConfigurationError(
                    f"{type(self).__name__} specs must be "
                    f"{self.spec_type.__name__} instances, "
                    f"got {type(spec).__name__}"
                )

    def __bool__(self) -> bool:
        return bool(self.specs)

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "seed": self.seed,
            self.json_key: [asdict(s) for s in self.specs],
        }, indent=2)

    @classmethod
    def from_json(cls: Type[_P], text: str) -> _P:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigurationError(
                f"invalid {cls.noun}-plan JSON: {e}") from None
        try:
            specs = [cls.spec_type(**entry)
                     for entry in data.get(cls.json_key, [])]
        except TypeError as e:
            raise ConfigurationError(f"invalid {cls.noun} spec: {e}") from None
        return cls(specs, seed=int(data.get("seed", 0)))

    # -- the compact grammar ---------------------------------------------------

    @classmethod
    def parse(cls: Type[_P], text: str, seed: int = 0) -> _P:
        """Parse the compact grammar (or a ``@file`` reference).

        ``seed`` seeds the stochastic draws unless a ``seed=N`` event
        overrides it; a ``@file`` plan carries its own seed.
        """
        text = text.strip()
        if text.startswith("@"):
            try:
                with open(text[1:], "r", encoding="utf-8") as fh:
                    return cls.from_json(fh.read())
            except OSError as e:
                raise ConfigurationError(
                    f"cannot read {cls.noun} plan {text[1:]!r}: {e}"
                ) from None
        specs: List[Any] = []
        for event in filter(None, (e.strip() for e in text.split(";"))):
            if event.startswith("seed="):
                seed = _convert(int, event[len("seed="):], "seed", event)
                continue
            head, _, opts = event.partition(":")
            kind, _, when = head.partition("@")
            kwargs: Dict[str, Any] = {"kind": kind.strip()}
            if when:
                try:
                    kwargs[cls.at_field] = int(when)
                except ValueError:
                    at_noun = cls.at_field.replace("_", " ")
                    raise ConfigurationError(
                        f"bad {cls.noun} {at_noun} {when!r} in {event!r}"
                    ) from None
            for pair in filter(None, (p.strip() for p in opts.split(","))):
                key, eq, value = pair.partition("=")
                if not eq or key not in cls.options:
                    expected = ", ".join(f"{k}=" for k in cls.options)
                    raise ConfigurationError(
                        f"bad {cls.noun} option {pair!r} in {event!r} "
                        f"(expected {expected})"
                    )
                name, convert = cls.options[key]
                kwargs[name] = _convert(convert, value, key, event)
            specs.append(cls.spec_type(**kwargs))
        if not specs:
            raise ConfigurationError(
                f"{cls.noun} plan {text!r} contains no events")
        return cls(specs, seed=seed)


def _convert(convert: Callable[[str], Any], value: str, key: str,
             event: str) -> Any:
    try:
        return convert(value)
    except ValueError:
        raise ConfigurationError(
            f"bad value {value!r} for {key!r} in {event!r}") from None
