"""Wind-aided aerosol plume channel models, biosensor detection, and the
numerical oracles that validate them.

The package splits into closed-form channel mathematics (:mod:`.channel`),
the receiver/detector chain (:mod:`.receiver`), independent numerical ground
truth (:mod:`.oracles`), scenario configuration (:mod:`.scenario`),
experiment runners with tabular persistence (:mod:`.runners`) and the
command-line front end (:mod:`.cli`).
"""

__version__ = "0.1.0"

from .channel import (  # noqa: F401
    ChannelParams,
    ComplexResponse,
    DiffusivityProfile,
    JetRelease,
    MultiUserScenario,
    SourceSpec,
    StochasticGrid,
    breath_response,
    diffusion_scale,
    frequency_response,
    impulse_response,
    jet_concentration,
    multi_user_response,
    person_response,
    steady_state_concentration,
    stochastic_expected_response,
)
from .errors import (  # noqa: F401
    DomainError,
    EvaluationDomainError,
    GeometryError,
    GridError,
    PlumesenseError,
    QuadratureError,
    ScenarioError,
)
from .receiver import (  # noqa: F401
    ReceiverSpec,
    decide,
    ml_threshold,
    pmd_conservative,
    pmd_exact,
    q_function,
    receiver_exposure,
)
from .scenario import ScenarioConfig, load_scenario, parse_scenario  # noqa: F401
