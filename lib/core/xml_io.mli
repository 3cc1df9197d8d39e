(** The Arcade XML input language.

    The paper's tool chain reads an architectural model, a fault tree and a
    measure specification from XML ([9] — an unpublished master's thesis).
    This module defines and implements our equivalent schema:

    {v
    <arcade name="line1">
      <components>
        <component name="st1" mttf="2000" mttr="5"
                   failed-cost="3" operational-cost="0"/>
        ...
      </components>
      <repair-units>
        <repair-unit name="ru" strategy="frf" crews="1"
                     idle-cost="1" busy-cost="0" preemptive="false">
          <component ref="st1"/> ...
        </repair-unit>
      </repair-units>
      <spare-units>
        <spare-unit name="pumps" mode="hot">   <!-- or cold, warm:0.5 -->
          <primary ref="pump1"/> ... <spare ref="pump4"/>
        </spare-unit>
      </spare-units>
      <fault-tree>
        <or>
          <and><basic ref="st1"/>...</and>
          <kofn k="2"><basic ref="pump1"/>...</kofn>
          <basic ref="res"/>
        </or>
      </fault-tree>
      <measures>
        <measure name="availability" query="S=? [ &quot;full_service&quot; ]"/>
      </measures>
    </arcade>
    v}

    [strategy] is one of [dedicated], [fcfs], [frf], [fff], [priority] (for
    [priority], the child order is the priority order). The [measures]
    element is optional; queries are CSL/CSRL texts for {!Csl.Parser}.

    [of_xml (to_xml m)] reproduces the model exactly. *)

exception Schema_error of string

type measure_spec = { measure_name : string; query : string }

val to_xml : ?measures:measure_spec list -> Model.t -> Xml_kit.t

(** {1 Reading}

    One reader serves every front end. {!read} turns a document into raw
    records: an unvalidated mirror of {!Model.t} with source positions,
    and a list of positioned schema errors. It never raises and reports
    every schema error, not just the first. The linter runs its rules on
    the raw records; {!to_model} builds the model from them; {!of_xml} is
    the two together, for callers that want a model or an exception. *)

type pos = (int * int) option
(** [(line, column)] of an element, when the document came with a
    locator. *)

type raw_mode = {
  rm_name : string;  (** ["failed"] for a component's primary mode *)
  rm_mttf : float option;  (** [None]: missing or unparsable *)
  rm_mttr : float option;
  rm_stages : int option;  (** [None]: unparsable; absent reads as 1 *)
  rm_failed_cost : float;
  rm_pos : pos;
}

type raw_component = {
  rc_name : string;
  rc_modes : raw_mode list;  (** primary mode (["failed"]) first *)
  rc_operational_cost : float;
  rc_pos : pos;
}

type raw_repair_unit = {
  rr_name : string;
  rr_strategy : Repair.strategy option;  (** [None]: missing or unknown *)
  rr_crews : int option;  (** [None]: attribute absent or unparsable *)
  rr_components : string list;
  rr_idle_cost : float;
  rr_busy_cost : float;
  rr_preemptive : bool;
  rr_pos : pos;
}

type raw_spare_unit = {
  rs_name : string;
  rs_mode : Spare.mode;
  rs_primaries : string list;
  rs_spares : string list;
  rs_pos : pos;
}

type raw_gate =
  | Gbasic of string * pos
  | Gand of raw_gate list * pos
  | Gor of raw_gate list * pos
  | Gkofn of int option * raw_gate list * pos

type raw_measure = { ms_name : string; ms_query : string; ms_pos : pos }

type raw = {
  raw_name : string;
  raw_pos : pos;  (** the root element's *)
  raw_components : raw_component list;
  raw_repair_units : raw_repair_unit list;
  raw_spare_units : raw_spare_unit list;
  raw_fault_tree : raw_gate option;
  raw_measures : raw_measure list;
}

type error = {
  err_pos : pos;
  err_subject : string;  (** the offending element, e.g. ["<component>"] *)
  err_message : string;
}

val read : ?pos:Xml_kit.locator -> Xml_kit.t -> raw * error list
(** The raw records of a document and its schema errors, in document
    order. Never raises: a missing or unparsable attribute, an unknown
    strategy, spare mode or gate, or a missing section is an error, and a
    default takes its place. [pos] (from {!Xml_kit.parse_string_located})
    gives the positions. *)

val to_model : raw -> (Model.t * measure_spec list, error) result
(** The model and its measures, or the first rejection: a validating
    constructor ({!Model.make} and those it is built from) rejecting the
    records, or a required value missing, which {!read} has then reported
    as an error. The rejection is positioned at the record it concerns,
    or at the root element when it concerns the model as a whole. *)

val of_xml :
  ?file:string -> ?pos:Xml_kit.locator -> Xml_kit.t -> Model.t * measure_spec list
(** {!read}, then {!to_model}. Raises {!Schema_error}, and nothing else,
    on the first schema error or on a model the constructors reject.
    When [pos] (and optionally [file]) are given, the message starts with
    a [file:line:column: ] prefix locating the offending element (the
    root element for a rejection of the model as a whole). *)

val load : string -> Model.t * measure_spec list
(** {!of_xml} over a file, with positions. An XML parse error is a
    {!Schema_error} too. *)
