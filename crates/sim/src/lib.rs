//! Behavioral Verilog simulator and testbench harness for VeriSpec.
//!
//! This crate is the stand-in for Icarus Verilog in the paper's
//! evaluation protocol (§IV-B2): *syntax* correctness is "the design
//! elaborates", *functional* correctness is "the design's outputs match
//! the testbench expectations for all stimuli". It executes the
//! synthesizable RTL subset parsed by `verispec-verilog`:
//!
//! * continuous assignments and `always @(*)` combinational processes,
//!   settled to a fix-point;
//! * `always @(posedge/negedge …)` clocked processes with proper
//!   two-phase non-blocking assignment semantics (including async
//!   resets and derived clocks);
//! * memories (`reg [7:0] mem [0:15]`), `for`/`while`/`repeat` loops
//!   with runaway protection, `case`/`casez`/`casex` with wildcard
//!   matching;
//! * two-state values up to 64 bits with Verilog width/sign semantics.
//!
//! # Examples
//!
//! ```
//! use verispec_sim::{elaborate, Sim};
//!
//! let src = "module counter(input clk, input rst, output reg [3:0] q);
//!              always @(posedge clk) if (rst) q <= 0; else q <= q + 1;
//!            endmodule";
//! let module = &verispec_verilog::parse(src)?.modules[0];
//! let design = elaborate(module)?;
//! let mut sim = Sim::new(&design)?;
//! sim.set("rst", 0)?;
//! for _ in 0..5 {
//!     sim.clock_pulse("clk")?;
//! }
//! assert_eq!(sim.get("q")?, 5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

pub mod elab;
pub mod harness;
pub mod interp;
pub mod value;

pub use elab::{
    elaborate, elaborate_with_params, Design, Process, Signal, SignalKind, SimError, SimResult,
};
pub use harness::{
    run_combinational, run_sequential, InputVector, Mismatch, OutputVector, ResetSpec, SeqSpec,
    TbResult,
};
pub use interp::Sim;
pub use value::BitVec;

#[cfg(test)]
mod tests {
    use super::*;
    use verispec_verilog::parse;

    fn design_of(src: &str) -> Design {
        let file = parse(src).unwrap_or_else(|e| panic!("parse: {e}\n{src}"));
        elaborate(&file.modules[0]).unwrap_or_else(|e| panic!("elab: {e}\n{src}"))
    }

    #[test]
    fn combinational_mux() {
        let d = design_of(
            "module mux(input [3:0] a, b, input sel, output [3:0] y);
               assign y = sel ? b : a;
             endmodule",
        );
        let mut sim = Sim::new(&d).expect("sim");
        sim.set("a", 3).expect("set");
        sim.set("b", 12).expect("set");
        sim.set("sel", 0).expect("set");
        assert_eq!(sim.get("y").expect("get"), 3);
        sim.set("sel", 1).expect("set");
        assert_eq!(sim.get("y").expect("get"), 12);
    }

    #[test]
    fn always_star_with_case() {
        let d = design_of(
            "module alu(input [1:0] op, input [7:0] a, b, output reg [7:0] y);
               always @(*) begin
                 case (op)
                   2'b00: y = a + b;
                   2'b01: y = a - b;
                   2'b10: y = a & b;
                   default: y = a ^ b;
                 endcase
               end
             endmodule",
        );
        let mut sim = Sim::new(&d).expect("sim");
        sim.set("a", 200).expect("set");
        sim.set("b", 100).expect("set");
        for (op, expect) in [(0u64, 44u64), (1, 100), (2, 64), (3, 172)] {
            sim.set("op", op).expect("set");
            assert_eq!(sim.get("y").expect("get"), expect, "op={op}");
        }
    }

    #[test]
    fn clocked_counter_with_sync_reset() {
        let d = design_of(
            "module counter(input clk, rst, en, output reg [3:0] q);
               always @(posedge clk)
                 if (rst) q <= 4'd0;
                 else if (en) q <= q + 1;
             endmodule",
        );
        let mut sim = Sim::new(&d).expect("sim");
        sim.set("rst", 1).expect("set");
        sim.set("en", 0).expect("set");
        sim.clock_pulse("clk").expect("clk");
        assert_eq!(sim.get("q").expect("q"), 0);
        sim.set("rst", 0).expect("set");
        sim.set("en", 1).expect("set");
        for i in 1..=20u64 {
            sim.clock_pulse("clk").expect("clk");
            assert_eq!(sim.get("q").expect("q"), i % 16, "cycle {i}");
        }
    }

    #[test]
    fn async_active_low_reset() {
        let d = design_of(
            "module dff(input clk, rst_n, d, output reg q);
               always @(posedge clk or negedge rst_n)
                 if (!rst_n) q <= 1'b0;
                 else q <= d;
             endmodule",
        );
        let mut sim = Sim::new(&d).expect("sim");
        sim.set("rst_n", 1).expect("set");
        sim.set("d", 1).expect("set");
        sim.clock_pulse("clk").expect("clk");
        assert_eq!(sim.get("q").expect("q"), 1);
        // Async reset without a clock edge.
        sim.set("rst_n", 0).expect("set");
        assert_eq!(
            sim.get("q").expect("q"),
            0,
            "reset must apply asynchronously"
        );
        // Held in reset across clocks.
        sim.clock_pulse("clk").expect("clk");
        assert_eq!(sim.get("q").expect("q"), 0);
    }

    #[test]
    fn nonblocking_swap() {
        // The classic NBA test: both registers swap simultaneously.
        let d = design_of(
            "module swap(input clk, output reg a, b);
               initial begin a = 1'b0; b = 1'b1; end
               always @(posedge clk) begin
                 a <= b;
                 b <= a;
               end
             endmodule",
        );
        let mut sim = Sim::new(&d).expect("sim");
        assert_eq!(sim.get("a").expect("a"), 0);
        assert_eq!(sim.get("b").expect("b"), 1);
        sim.clock_pulse("clk").expect("clk");
        assert_eq!(sim.get("a").expect("a"), 1);
        assert_eq!(sim.get("b").expect("b"), 0);
        sim.clock_pulse("clk").expect("clk");
        assert_eq!(sim.get("a").expect("a"), 0);
        assert_eq!(sim.get("b").expect("b"), 1);
    }

    #[test]
    fn memory_write_and_read() {
        let d = design_of(
            "module ram(input clk, we, input [3:0] addr, input [7:0] din, output [7:0] dout);
               reg [7:0] mem [0:15];
               assign dout = mem[addr];
               always @(posedge clk) if (we) mem[addr] <= din;
             endmodule",
        );
        let mut sim = Sim::new(&d).expect("sim");
        sim.set("we", 1).expect("set");
        sim.set("addr", 5).expect("set");
        sim.set("din", 0xAB).expect("set");
        sim.clock_pulse("clk").expect("clk");
        assert_eq!(sim.get("dout").expect("dout"), 0xAB);
        sim.set("addr", 6).expect("set");
        assert_eq!(sim.get("dout").expect("dout"), 0, "unwritten cell reads 0");
        sim.set("addr", 5).expect("set");
        sim.set("we", 0).expect("set");
        sim.set("din", 0xCD).expect("set");
        sim.clock_pulse("clk").expect("clk");
        assert_eq!(sim.get("dout").expect("dout"), 0xAB, "write disabled");
    }

    #[test]
    fn for_loop_bit_reverse() {
        let d = design_of(
            "module rev(input [7:0] a, output reg [7:0] y);
               integer i;
               always @(*) begin
                 for (i = 0; i < 8; i = i + 1)
                   y[i] = a[7 - i];
               end
             endmodule",
        );
        let mut sim = Sim::new(&d).expect("sim");
        sim.set("a", 0b1100_1010).expect("set");
        assert_eq!(sim.get("y").expect("y"), 0b0101_0011);
    }

    #[test]
    fn casez_priority_encoder() {
        let d = design_of(
            "module penc(input [3:0] req, output reg [1:0] grant, output reg valid);
               always @(*) begin
                 valid = 1'b1;
                 casez (req)
                   4'b1???: grant = 2'd3;
                   4'b01??: grant = 2'd2;
                   4'b001?: grant = 2'd1;
                   4'b0001: grant = 2'd0;
                   default: begin grant = 2'd0; valid = 1'b0; end
                 endcase
               end
             endmodule",
        );
        let mut sim = Sim::new(&d).expect("sim");
        for (req, grant, valid) in [
            (0b1010u64, 3u64, 1u64),
            (0b0110, 2, 1),
            (0b0011, 1, 1),
            (0b0001, 0, 1),
            (0, 0, 0),
        ] {
            sim.set("req", req).expect("set");
            assert_eq!(sim.get("grant").expect("g"), grant, "req={req:04b}");
            assert_eq!(sim.get("valid").expect("v"), valid, "req={req:04b}");
        }
    }

    #[test]
    fn parameters_resolve_and_override() {
        let src = "module add #(parameter W = 4)(input [W-1:0] a, b, output [W-1:0] s);
                     assign s = a + b;
                   endmodule";
        let file = parse(src).expect("parse");
        let d = elaborate(&file.modules[0]).expect("elab");
        assert_eq!(d.signal(d.signal_id("a").expect("a")).width, 4);
        let d8 = elaborate_with_params(&file.modules[0], &[("W".into(), 8)]).expect("elab");
        assert_eq!(d8.signal(d8.signal_id("a").expect("a")).width, 8);
        let mut sim = Sim::new(&d8).expect("sim");
        sim.set("a", 200).expect("set");
        sim.set("b", 57).expect("set");
        assert_eq!(sim.get("s").expect("s"), 257 % 256);
    }

    #[test]
    fn undeclared_identifier_is_elab_error() {
        let file =
            parse("module bad(input a, output y); assign y = a & ghost; endmodule").expect("parse");
        let err = elaborate(&file.modules[0]).expect_err("must fail");
        assert!(err.message.contains("ghost"), "{err}");
    }

    #[test]
    fn procedural_assign_to_wire_is_elab_error() {
        let file =
            parse("module bad(input a, output y); always @(*) y = a; endmodule").expect("parse");
        let err = elaborate(&file.modules[0]).expect_err("must fail");
        assert!(err.message.contains("wire"), "{err}");
    }

    #[test]
    fn continuous_assign_to_reg_is_elab_error() {
        let file =
            parse("module bad(input a, output reg y); assign y = a; endmodule").expect("parse");
        let err = elaborate(&file.modules[0]).expect_err("must fail");
        assert!(err.message.contains("reg"), "{err}");
    }

    #[test]
    fn instance_is_unsupported() {
        let file = parse("module top(input a, output y); inv u0 (a, y); endmodule").expect("parse");
        let err = elaborate(&file.modules[0]).expect_err("must fail");
        assert!(err.message.contains("instantiation"), "{err}");
    }

    #[test]
    fn oscillating_combinational_loop_errors() {
        let d = design_of("module osc(output y); wire a; assign a = ~a; assign y = a; endmodule");
        assert!(Sim::new(&d).is_err(), "ring oscillator must not settle");
    }

    #[test]
    fn runaway_while_loop_errors() {
        let d = design_of(
            "module hang(input a, output reg y);
               always @(*) begin
                 y = a;
                 while (1'b1) y = ~y;
               end
             endmodule",
        );
        assert!(Sim::new(&d).is_err(), "infinite loop must hit the budget");
    }

    #[test]
    fn one_budget_covers_every_activation_of_a_simulation() {
        // A legal loop that one activation runs in full, re-run on every
        // settle sweep of every input change: the simulation's one
        // budget runs out within a few changes, where a budget per
        // activation would have spent it afresh on each.
        let d = design_of(
            "module spin(input [7:0] a, output reg [15:0] y);
               integer i;
               always @(*) begin
                 y = 0;
                 for (i = 0; i < 4000; i = i + 1) y = y + a;
               end
             endmodule",
        );
        let mut sim = Sim::new(&d).expect("one activation fits the budget");
        assert_eq!(sim.get("y").expect("y"), 0);
        let err = (1..64u64)
            .find_map(|v| sim.set("a", v).err())
            .expect("the simulation's total runs out");
        assert!(err.to_string().contains("budget"), "{err}");
    }

    #[test]
    fn non_ansi_ports_simulate() {
        let d = design_of(
            "module f(a, b, y);
               input a, b;
               output y;
               assign y = a ^ b;
             endmodule",
        );
        let mut sim = Sim::new(&d).expect("sim");
        sim.set("a", 1).expect("set");
        sim.set("b", 1).expect("set");
        assert_eq!(sim.get("y").expect("y"), 0);
    }

    #[test]
    fn shift_register_with_concat() {
        let d = design_of(
            "module sr(input clk, input din, output reg [3:0] q);
               always @(posedge clk) q <= {q[2:0], din};
             endmodule",
        );
        let mut sim = Sim::new(&d).expect("sim");
        for bit in [1u64, 0, 1, 1] {
            sim.set("din", bit).expect("set");
            sim.clock_pulse("clk").expect("clk");
        }
        assert_eq!(sim.get("q").expect("q"), 0b1011);
    }

    #[test]
    fn harness_combinational_pass_and_fail() {
        let d = design_of("module and2(input a, b, output y); assign y = a & b; endmodule");
        let vectors: Vec<InputVector> = (0..4)
            .map(|i| vec![("a".to_string(), i & 1), ("b".to_string(), (i >> 1) & 1)])
            .collect();
        let good = run_combinational(&d, &vectors, |ins| {
            let a = ins[0].1;
            let b = ins[1].1;
            vec![("y".to_string(), a & b)]
        })
        .expect("run");
        assert!(good.passed);
        assert_eq!(good.cycles_run, 4);

        let bad = run_combinational(&d, &vectors, |ins| {
            let a = ins[0].1;
            let b = ins[1].1;
            vec![("y".to_string(), a | b)] // wrong golden: OR
        })
        .expect("run");
        assert!(!bad.passed);
        assert!(!bad.mismatches.is_empty());
    }

    #[test]
    fn harness_sequential_counter() {
        let d = design_of(
            "module c(input clk, rst, output reg [7:0] q);
               always @(posedge clk) if (rst) q <= 0; else q <= q + 1;
             endmodule",
        );
        let spec = SeqSpec {
            clock: "clk".into(),
            reset: Some(ResetSpec {
                signal: "rst".into(),
                active_low: false,
                cycles: 2,
            }),
        };
        let vectors: Vec<InputVector> = (0..10).map(|_| vec![("rst".to_string(), 0)]).collect();
        let mut count = 0u64;
        let res = run_sequential(&d, &spec, &vectors, |_| {
            count += 1;
            vec![("q".to_string(), count)]
        })
        .expect("run");
        assert!(res.passed, "{:?}", res.mismatches);
    }

    #[test]
    fn derived_clock_divider() {
        let d = design_of(
            "module div(input clk, rst, output reg tick);
               reg [1:0] cnt;
               always @(posedge clk)
                 if (rst) begin cnt <= 0; tick <= 0; end
                 else begin cnt <= cnt + 1; tick <= (cnt == 2'd3); end
             endmodule",
        );
        let mut sim = Sim::new(&d).expect("sim");
        sim.set("rst", 1).expect("set");
        sim.clock_pulse("clk").expect("clk");
        sim.set("rst", 0).expect("set");
        let mut ticks = 0;
        for _ in 0..16 {
            sim.clock_pulse("clk").expect("clk");
            ticks += sim.get("tick").expect("tick");
        }
        assert_eq!(ticks, 4, "tick once per 4 cycles");
    }
}

#[cfg(test)]
mod context_width_tests {
    use super::*;
    use verispec_verilog::parse;

    fn design_of(src: &str) -> Design {
        let file = parse(src).unwrap_or_else(|e| panic!("parse: {e}\n{src}"));
        elaborate(&file.modules[0]).unwrap_or_else(|e| panic!("elab: {e}\n{src}"))
    }

    #[test]
    fn carry_captured_without_explicit_extension() {
        // The LRM context rule: RHS computed at LHS width (9 bits), so the
        // carry survives — iverilog-compatible behaviour.
        let d = design_of(
            "module add(input [7:0] a, b, output [7:0] s, output cout);
               assign {cout, s} = a + b;
             endmodule",
        );
        let mut sim = Sim::new(&d).expect("sim");
        sim.set("a", 200).expect("set");
        sim.set("b", 100).expect("set");
        assert_eq!(sim.get("s").expect("s"), 300 % 256);
        assert_eq!(sim.get("cout").expect("c"), 1);
    }

    #[test]
    fn wider_lhs_widens_the_whole_expression() {
        let d = design_of(
            "module w(input [3:0] a, b, output [15:0] y);
               assign y = a * b;
             endmodule",
        );
        let mut sim = Sim::new(&d).expect("sim");
        sim.set("a", 15).expect("set");
        sim.set("b", 15).expect("set");
        assert_eq!(
            sim.get("y").expect("y"),
            225,
            "product must not wrap at 4 bits"
        );
    }

    #[test]
    fn comparison_operands_are_self_determined_islands() {
        // (a + b) inside a comparison is sized by the comparison's own
        // operands, not by the 1-bit result context.
        let d = design_of(
            "module c(input [3:0] a, b, output y);
               assign y = (a + b) > 4'd10;
             endmodule",
        );
        let mut sim = Sim::new(&d).expect("sim");
        // 12 + 12 = 24 wraps to 8 at 4 bits: NOT > 10 under Verilog rules.
        sim.set("a", 12).expect("set");
        sim.set("b", 12).expect("set");
        assert_eq!(sim.get("y").expect("y"), 0, "4-bit wrap inside comparison");
        sim.set("a", 6).expect("set");
        sim.set("b", 6).expect("set");
        assert_eq!(sim.get("y").expect("y"), 1);
    }

    #[test]
    fn shift_amount_is_self_determined() {
        let d = design_of(
            "module s(input [7:0] a, input [2:0] n, output [15:0] y);
               assign y = a << n;
             endmodule",
        );
        let mut sim = Sim::new(&d).expect("sim");
        sim.set("a", 0x80).expect("set");
        sim.set("n", 4).expect("set");
        // Context width 16: the shifted-out bit is retained.
        assert_eq!(sim.get("y").expect("y"), 0x800);
    }

    #[test]
    fn concat_is_a_self_determined_island() {
        let d = design_of(
            "module k(input [3:0] a, output [15:0] y);
               assign y = {a, a};
             endmodule",
        );
        let mut sim = Sim::new(&d).expect("sim");
        sim.set("a", 0x9).expect("set");
        assert_eq!(
            sim.get("y").expect("y"),
            0x99,
            "concat stays 8 bits, zero-extended"
        );
    }

    #[test]
    fn ternary_branches_share_assignment_context() {
        let d = design_of(
            "module t(input sel, input [3:0] a, b, output [7:0] y);
               assign y = sel ? (a + b) : (a * b);
             endmodule",
        );
        let mut sim = Sim::new(&d).expect("sim");
        sim.set("a", 12).expect("set");
        sim.set("b", 13).expect("set");
        sim.set("sel", 1).expect("set");
        assert_eq!(sim.get("y").expect("y"), 25, "sum at 8-bit context");
        sim.set("sel", 0).expect("set");
        assert_eq!(sim.get("y").expect("y"), 156, "product at 8-bit context");
    }

    #[test]
    fn subtraction_borrow_visible_in_wider_context() {
        let d = design_of(
            "module b(input [3:0] a, b, output [4:0] y);
               assign y = a - b;
             endmodule",
        );
        let mut sim = Sim::new(&d).expect("sim");
        sim.set("a", 2).expect("set");
        sim.set("b", 3).expect("set");
        // 2 - 3 at 5-bit context = 0x1F.
        assert_eq!(sim.get("y").expect("y"), 0x1F);
    }
}

#[cfg(test)]
mod driver_conflict_tests {
    use super::*;
    use verispec_verilog::parse;

    #[test]
    fn double_continuous_drive_is_elab_error() {
        let file = parse(
            "module bad(input a, b, output y);
               assign y = a;
               assign y = b;
             endmodule",
        )
        .expect("parse");
        let err = elaborate(&file.modules[0]).expect_err("must fail");
        assert!(err.message.contains("continuous drivers"), "{err}");
    }

    #[test]
    fn disjoint_bit_drivers_are_legal() {
        let file = parse(
            "module ok(input a, b, output [1:0] y);
               assign y[0] = a;
               assign y[1] = b;
             endmodule",
        )
        .expect("parse");
        assert!(elaborate(&file.modules[0]).is_ok());
    }

    #[test]
    fn wire_initializer_plus_assign_conflicts() {
        let file = parse(
            "module bad(input a, output y);
               wire w = a;
               assign w = ~a;
               assign y = w;
             endmodule",
        )
        .expect("parse");
        assert!(elaborate(&file.modules[0]).is_err());
    }
}
