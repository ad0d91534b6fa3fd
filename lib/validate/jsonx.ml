include Util.Jsonx
