type storage = Global | Stack | Heap

type t = {
  symbol : string;
  storage : storage;
  offset : int;
  stride : int;
  granularity : int;
  footprint : int;
  indirect : bool;
}

let make ?(storage = Global) ?(offset = 0) ?(indirect = false) ?(footprint = 0)
    ~symbol ~stride ~granularity () =
  assert (granularity > 0);
  { symbol; storage; offset; stride; granularity; footprint; indirect }

let pp ppf t =
  Format.fprintf ppf "%s[%d%+d*i]:%dB%s" t.symbol t.offset t.stride
    t.granularity
    (if t.indirect then " (indirect)" else "")
