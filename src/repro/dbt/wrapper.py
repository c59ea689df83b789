"""The dbt-specific wrapper around the Session API.

dbt models are bare ``SELECT`` statements stored one per file, so the Query
Dictionary uses the file (model) name as the query identifier — exactly the
behaviour footnote 1 of the paper describes.
"""

from .project import DbtProject


def lineagex_dbt(
    project,
    catalog=None,
    strict=False,
    output_dir=None,
    use_stack=True,
    collect_traces=False,
    mode="dag",
):
    """Run LineageX over a dbt project.

    Parameters
    ----------
    project:
        A :class:`DbtProject`, a path to a dbt project directory, or an
        in-memory ``{model_name: raw_sql}`` mapping.
    catalog:
        Optional :class:`repro.catalog.Catalog` with the source-table schemas.
    strict / use_stack / collect_traces / mode:
        Extraction options, identical to :func:`repro.core.runner.lineagex`
        (historically ``mode`` and ``collect_traces`` were silently dropped
        by this wrapper; they are forwarded now).
    output_dir:
        When given, write ``lineagex.json`` and ``lineagex.html`` there.

    This is a thin shim over the Session API: it is equivalent to
    ``LineageSession(DbtSource(project), catalog=catalog, ...).extract()``.
    """
    from ..session import LineageSession, SessionConfig
    from ..sources import DbtSource

    if isinstance(project, str):
        project = DbtProject.from_directory(project)
    elif isinstance(project, dict):
        project = DbtProject.from_models(project)
    session = LineageSession(
        DbtSource(project),
        catalog=catalog,
        config=SessionConfig(
            strict=strict,
            use_stack=use_stack,
            collect_traces=collect_traces,
            mode=mode,
        ),
    )
    result = session.extract()
    if output_dir is not None:
        result.save(output_dir)
    return result
