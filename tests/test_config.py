import pytest

from perspec.config import RunConfig, load_config, parse_text
from perspec.errors import ValidationError
from perspec.schatten import DEFAULT_ORDERS


class TestPrecedence:
    def test_file_then_environment_then_flags(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epsilon=0.5\ngrid=128\nlevels=2\n")
        environ = {"PERSPEC_OPT_GRID": "256", "PERSPEC_OPT_LEVELS": "3"}
        cfg = load_config(str(path), {"levels": 5, "seed": None}, environ=environ)
        assert cfg.epsilon == 0.5            # file over default
        assert cfg.grid == 256               # environment over file
        assert cfg.levels == 5               # flag over environment
        assert cfg.seed == RunConfig().seed  # an unset flag changes nothing

    def test_unreadable_file_is_a_validation_error(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read config"):
            load_config(str(tmp_path / "missing.cfg"), environ={})


    @pytest.mark.parametrize("source", ["file", "environment"])
    def test_non_finite_number_is_a_validation_error(self, tmp_path, source):
        path = tmp_path / "run.cfg"
        path.write_text("rtol=nan\n" if source == "file" else "")
        environ = {"PERSPEC_OPT_LAMBDA_IM": "-inf"} if source == "environment" else {}
        with pytest.raises(ValidationError, match="must be a finite number"):
            load_config(str(path), environ=environ)


class TestTextFormat:
    @pytest.mark.parametrize("profile_file", ["", "it's.txt", "a\\b.txt"])
    def test_round_trip(self, profile_file):
        cfg = RunConfig(profile="piecewise-linear", profile_file=profile_file, epsilon=0.7,
                        rtol=1e-9, grid=256, lambda_re=-0.3, p_orders="1.5,2",
                        levels=4, seed=7, out="result.json")
        assert RunConfig(**parse_text(cfg.to_text())) == cfg

    @pytest.mark.parametrize("profile_file, out", [
        ("my table=1 #2.txt", "a b/result.json"), ("", "x"), ("'quoted'", "tab\tinside")])
    def test_every_valid_config_round_trips(self, profile_file, out):
        cfg = RunConfig(profile_file=profile_file, out=out).validate()
        assert RunConfig(**parse_text(cfg.to_text())) == cfg

    @pytest.mark.parametrize("field", ["profile_file", "out"])
    @pytest.mark.parametrize("value", [" lead.txt", "trail.txt ", "\ttab.txt"])
    def test_surrounding_whitespace_in_a_path_is_refused(self, field, value):
        # parse_text strips values, so these would not read back as written
        with pytest.raises(ValidationError, match=f"{field} must not start or end with whitespace"):
            RunConfig(**{field: value}).validate()

    @pytest.mark.parametrize("field", ["profile", "profile_file", "p_orders", "out"])
    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\u2028"])
    def test_line_break_is_refused(self, field, brk):
        # a line break would split the value into a second line of to_text
        with pytest.raises(ValidationError, match=f"{field} must not hold a line break"):
            RunConfig(**{field: "1" + brk + "2"}).validate()

    def test_default_orders_are_schattens(self):
        cfg = RunConfig()
        assert cfg.p_orders == "1,1.5,2,3"
        assert cfg.parsed_orders() == DEFAULT_ORDERS

    def test_unknown_key_carries_line_number(self):
        with pytest.raises(ValidationError, match="<config>:2: unknown key"):
            parse_text("grid=128\ncolour=blue\n")
