"""Settings shared by the test modules."""

from hypothesis import Phase, settings

# Property tests draw the same examples on every run, keep no example database and have
# no per-example deadline, so neither their inputs nor their verdicts depend on earlier
# runs or on the host's load.  They do not shrink a failing example: shrinking took over
# a minute per failure on a 2-core host, and the unshrunk example is reproducible, since
# the draws are derandomized.
settings.register_profile(
    "hnbody",
    deadline=None,
    derandomize=True,
    database=None,
    max_examples=100,
    phases=[phase for phase in settings.default.phases if phase is not Phase.shrink],
)
settings.load_profile("hnbody")
